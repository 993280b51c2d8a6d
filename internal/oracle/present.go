package oracle

import (
	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// TracerP produces per-round S-box index states for a PRESENT victim
// (present.Cipher80 and present.Cipher128 implement it).
type TracerP interface {
	SBoxInputs(pt uint64) []uint64
}

// appendTracerP is the fast path for victims that can stop the trace
// early, appending into a buffer the oracle reuses across encryptions.
// present.Cipher80 implements it.
type appendTracerP interface {
	SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64
}

// OracleP is the ideal probing channel against a table-based PRESENT
// victim. PRESENT adds the round key before SubCells, so the signal
// window for round key t starts at round t (not t+1 as in GIFT):
//
//	[t,  t+ProbeRound-1]  with flush
//	[1,  t+ProbeRound-1]  without flush
//
// It implements probe.Channel.
type OracleP struct {
	cfg         Config
	tracer      TracerP //grinch:secret
	noise       *rng.Source
	lines       int
	shift       uint
	encryptions uint64
	// states is the reusable victim-trace buffer (appendTracerP
	// victims), reset per encryption.
	states []uint64
}

// NewPresent builds an oracle over a PRESENT victim. It models
// Flush+Reload only and rejects ProbeEvictTime.
//
//grinch:secret tr
func NewPresent(tr TracerP, cfg Config) (*OracleP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := flushReloadOnly(cfg); err != nil {
		return nil, err
	}
	return &OracleP{
		cfg:    cfg,
		tracer: tr,
		noise:  rng.New(cfg.Seed),
		lines:  16 / cfg.LineWords,
		shift:  cfg.lineShift(),
	}, nil
}

// Lines returns the number of cache lines the S-box table spans.
func (o *OracleP) Lines() int { return o.lines }

// Encryptions returns the victim's encryption count.
func (o *OracleP) Encryptions() uint64 { return o.encryptions }

// Collect runs one victim encryption and returns the observed line set
// for an attack on round key targetRound.
func (o *OracleP) Collect(pt uint64, targetRound int) probe.LineSet {
	o.encryptions++

	first := 1
	if o.cfg.Flush {
		first = targetRound
	}
	last := targetRound + o.cfg.ProbeRound - 1
	if last > present.Rounds {
		last = present.Rounds
	}

	var states []uint64
	if tt, ok := o.tracer.(appendTracerP); ok {
		o.states = tt.SBoxInputsAppend(o.states[:0], pt, last)
		states = o.states
	} else {
		states = o.tracer.SBoxInputs(pt)
	}
	var set probe.LineSet
	for r := first; r <= last; r++ {
		s := states[r-1]
		for i := uint(0); i < present.Segments; i++ {
			set = set.Add(int((s >> (4 * i) & 0xf) >> o.shift))
		}
	}
	return applyNoise(&o.cfg, o.noise, o.lines, set)
}
