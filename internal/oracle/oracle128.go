package oracle

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Tracer128 produces per-round S-box input states for a GIFT-128
// victim. gift.Cipher128 implements it.
type Tracer128 interface {
	SBoxInputs(pt bitutil.Word128) []bitutil.Word128
}

// appendTracer128 is the fast path for victims that can stop the trace
// at the probe window's end, appending into a buffer the oracle reuses
// across encryptions. gift.Cipher128 implements it.
type appendTracer128 interface {
	SBoxInputsAppend(dst []bitutil.Word128, pt bitutil.Word128, n int) []bitutil.Word128
}

// Oracle128 is the ideal probing channel against a GIFT-128 victim,
// with the same window semantics as Oracle. It implements
// core.Channel128.
type Oracle128 struct {
	cfg         Config
	tracer      Tracer128       //grinch:secret
	cipher      *gift.Cipher128 //grinch:secret
	noise       *rng.Source
	lines       int
	shift       uint
	encryptions uint64
	events      obs.Tracer
	// states is the reusable victim-trace buffer (appendTracer128
	// victims), reset per encryption.
	states []bitutil.Word128
}

// New128 builds an oracle for a GIFT-128 victim holding the given key.
//
//grinch:secret key
func New128(key bitutil.Word128, cfg Config) (*Oracle128, error) {
	c := gift.NewCipher128FromWord(key)
	o, err := New128FromTracer(c, cfg)
	if err != nil {
		return nil, err
	}
	o.cipher = c
	return o, nil
}

// New128FromTracer builds an oracle over any traced GIFT-128 victim.
// It models Flush+Reload only and rejects ProbeEvictTime.
//
//grinch:secret tr
func New128FromTracer(tr Tracer128, cfg Config) (*Oracle128, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := flushReloadOnly(cfg); err != nil {
		return nil, err
	}
	return &Oracle128{
		cfg:    cfg,
		tracer: tr,
		noise:  rng.New(cfg.Seed),
		lines:  16 / cfg.LineWords,
		shift:  cfg.lineShift(),
	}, nil
}

// Lines returns the number of cache lines the S-box table spans.
func (o *Oracle128) Lines() int { return o.lines }

// Encryptions returns the victim's encryption count.
func (o *Oracle128) Encryptions() uint64 { return o.encryptions }

// Cipher exposes the victim cipher when built with New128.
func (o *Oracle128) Cipher() *gift.Cipher128 { return o.cipher }

// SetTracer attaches an event tracer (nil disables tracing).
func (o *Oracle128) SetTracer(t obs.Tracer) { o.events = t }

// Collect runs one victim encryption and returns the observed line set
// for an attack on targetRound.
func (o *Oracle128) Collect(pt bitutil.Word128, targetRound int) probe.LineSet {
	o.encryptions++
	if o.events != nil {
		o.events.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: o.encryptions, Cipher: "GIFT-128", Round: targetRound})
		defer o.events.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: o.encryptions})
	}

	first := 1
	if o.cfg.Flush {
		first = targetRound + 1
	}
	last := targetRound + o.cfg.ProbeRound
	if last > gift.Rounds128 {
		last = gift.Rounds128
	}

	var states []bitutil.Word128
	if tt, ok := o.tracer.(appendTracer128); ok {
		o.states = tt.SBoxInputsAppend(o.states[:0], pt, last)
		states = o.states
	} else {
		states = o.tracer.SBoxInputs(pt)
	}
	var set probe.LineSet
	for r := first; r <= last; r++ {
		s := states[r-1]
		for i := uint(0); i < gift.Segments128; i++ {
			set = set.Add(int(s.Nibble(i) >> o.shift))
		}
	}
	return applyNoise(&o.cfg, o.noise, o.lines, set)
}
