// Package oracle provides the ideal observation channel the GRINCH paper
// uses for its first two experiments ("For the first two experiments,
// RTL simulations were used to collect clean data"): the exact set of
// S-box table lines touched between the probe's flush point and the
// probe itself, with configurable probing round, flush behaviour, cache
// line width and optional injected noise.
//
// The channel semantics (DESIGN.md §4): when the attack targets round t
// (wanting the round-(t+1) S-box accesses) and the probe lands
// ProbeRound rounds later, the observed set covers rounds
//
//	[t+1, t+ProbeRound]  with flush (the flush lands between the
//	                     round-t and round-(t+1) lookups)
//	[1,   t+ProbeRound]  without flush (stale earlier accesses remain)
//
// so ProbeRound = 1 is the cleanest channel (exactly the signal round)
// and larger values accumulate noise rounds, reproducing Fig. 3.
package oracle

import (
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// ProbeMode selects the probing primitive the channel models.
type ProbeMode int

const (
	// ProbeFlushReload (default) examines every table line per
	// encryption — the paper's preferred primitive (§III-C).
	ProbeFlushReload ProbeMode = iota
	// ProbeEvictTime models the time-driven baseline: one line is
	// evicted per encryption and only the victim's total-time elevation
	// for that line is learned, so each observation covers a single
	// line (round-robin across encryptions).
	ProbeEvictTime
)

// Config controls the observation channel.
type Config struct {
	// ProbeRound is how many rounds of S-box accesses the probe
	// accumulates past the target round (the paper's "cache probing
	// round" axis, 1 = earliest/cleanest). Must be ≥ 1.
	ProbeRound int
	// Probe selects the probing primitive (default Flush+Reload).
	Probe ProbeMode
	// Flush erases the accesses of rounds before the target round
	// (paper: "GRINCH with Flush").
	Flush bool
	// LineWords is how many table entries share one cache line
	// (paper Table I: 1, 2, 4, 8). Must divide 16.
	LineWords int
	// FalsePresence is the per-line probability that an untouched line
	// is reported touched (co-tenant pollution).
	FalsePresence float64
	// FalseAbsence is the per-line probability that a touched line is
	// reported untouched (eviction between access and probe).
	FalseAbsence float64
	// Seed drives the noise generator.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ProbeRound < 1 {
		return fmt.Errorf("oracle: ProbeRound = %d must be ≥ 1", c.ProbeRound)
	}
	switch c.LineWords {
	case 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("oracle: LineWords = %d must be one of 1,2,4,8,16", c.LineWords)
	}
	if err := validateNoise("FalsePresence", c.FalsePresence); err != nil {
		return err
	}
	if err := validateNoise("FalseAbsence", c.FalseAbsence); err != nil {
		return err
	}
	return nil
}

// lineShift is log2(LineWords): Validate admits only powers of two, so
// an S-box index maps to its table line with a shift, not a division.
func (c Config) lineShift() uint { return uint(bits.TrailingZeros(uint(c.LineWords))) }

// flushReloadOnly rejects ProbeEvictTime for the oracles that only
// model Flush+Reload (GIFT-128 and PRESENT): they have no masked
// collect, so an Evict+Time configuration would silently probe every
// line.
func flushReloadOnly(cfg Config) error {
	if cfg.Probe != ProbeFlushReload {
		return fmt.Errorf("oracle: probe mode %d is not supported by this victim's oracle (Flush+Reload only)", cfg.Probe)
	}
	return nil
}

// validateNoise checks one noise probability field, naming the
// offending field and value in the error. Both GIFT-64 and GIFT-128
// oracles share this range: [0,1) — a probability of exactly 1 would
// make every observation pure noise and is always a config mistake.
func validateNoise(field string, v float64) error {
	if v < 0 || v >= 1 {
		return fmt.Errorf("oracle: %s = %v out of range [0,1)", field, v)
	}
	return nil
}

// Tracer produces per-round S-box input states for a victim cipher —
// the address stream the cache leaks. gift.Cipher64 implements it; so
// do the hardened cipher variants in internal/countermeasure, which
// lets the same oracle demonstrate the countermeasures.
type Tracer interface {
	SBoxInputs(pt uint64) []uint64
}

// truncatedTracer is the fast path for victims that can stop the trace
// at the probe window's end.
type truncatedTracer interface {
	SBoxInputsN(pt uint64, n int) []uint64
}

// appendTracer is the allocation-free refinement of truncatedTracer:
// the victim appends its round states into a caller-owned buffer that
// the oracle reuses across encryptions. gift.Cipher64 implements it.
type appendTracer interface {
	SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64
}

// Oracle is an ideal probing channel against a GIFT-64 victim. It
// implements probe.Channel and probe.MaskedChannel.
type Oracle struct {
	cfg    Config
	tracer Tracer         //grinch:secret
	cipher *gift.Cipher64 //grinch:secret
	noise  *rng.Source
	lines  int
	// shift maps an S-box index to its table line (Config.lineShift).
	shift       uint
	full        probe.LineSet
	encryptions uint64
	// cursor cycles the evicted line in Evict+Time mode.
	cursor int
	events obs.Tracer
	// states is the reusable victim-trace buffer for the scalar Collect
	// path (appendTracer victims), reset per encryption.
	states []uint64
}

// New builds an oracle for a victim holding the given key.
//
//grinch:secret key
func New(key bitutil.Word128, cfg Config) (*Oracle, error) {
	c := gift.NewCipher64FromWord(key)
	o, err := NewFromTracer(c, cfg)
	if err != nil {
		return nil, err
	}
	o.cipher = c
	return o, nil
}

// NewFromTracer builds an oracle over any traced victim implementation.
//
//grinch:secret tr
func NewFromTracer(tr Tracer, cfg Config) (*Oracle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Oracle{
		cfg:    cfg,
		tracer: tr,
		noise:  rng.New(cfg.Seed),
		lines:  16 / cfg.LineWords,
		shift:  cfg.lineShift(),
		full:   probe.FullSet(16 / cfg.LineWords),
	}, nil
}

// MustNew is New for known-good configurations.
//
//grinch:secret key
func MustNew(key bitutil.Word128, cfg Config) *Oracle {
	o, err := New(key, cfg)
	if err != nil {
		panic(err)
	}
	return o
}

// Lines returns the number of cache lines the S-box table spans.
func (o *Oracle) Lines() int { return o.lines }

// Encryptions returns how many encryptions the victim has performed for
// this channel (the attack-effort metric).
func (o *Oracle) Encryptions() uint64 { return o.encryptions }

// Cipher exposes the victim cipher when the oracle was built with New
// (nil for NewFromTracer victims); tests use it to verify recovery.
func (o *Oracle) Cipher() *gift.Cipher64 { return o.cipher }

// SetTracer attaches an event tracer (nil disables tracing). The
// channel emits encryption_start/encryption_end per Collect.
func (o *Oracle) SetTracer(t obs.Tracer) { o.events = t }

// Collect runs one victim encryption of pt and returns the line set the
// probe observes when the attack targets round targetRound.
func (o *Oracle) Collect(pt uint64, targetRound int) probe.LineSet {
	o.encryptions++
	if o.events != nil {
		o.events.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: o.encryptions, Cipher: "GIFT-64", Round: targetRound})
		defer o.events.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: o.encryptions})
	}

	first := 1
	if o.cfg.Flush {
		first = targetRound + 1
	}
	last := targetRound + o.cfg.ProbeRound
	if last > gift.Rounds64 {
		last = gift.Rounds64
	}

	var states []uint64
	switch tt := o.tracer.(type) {
	case appendTracer:
		o.states = tt.SBoxInputsAppend(o.states[:0], pt, last)
		states = o.states
	case truncatedTracer:
		states = tt.SBoxInputsN(pt, last)
	default:
		states = o.tracer.SBoxInputs(pt)
	}

	var set probe.LineSet
	for r := first; r <= last; r++ {
		s := states[r-1]
		for i := uint(0); i < gift.Segments64; i++ {
			set = set.Add(int(bitutil.Nibble(s, i) >> o.shift))
		}
	}
	return o.applyNoise(set)
}

// CollectMasked implements probe.MaskedChannel: under Evict+Time the
// attacker learns one line's membership per encryption; under
// Flush+Reload the mask covers the whole table.
func (o *Oracle) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	full := o.Collect(pt, targetRound)
	if o.cfg.Probe != ProbeEvictTime {
		return full, o.full
	}
	l := o.cursor
	o.cursor = (o.cursor + 1) % o.lines
	mask = probe.LineSet(0).Add(l)
	return full.Intersect(mask), mask
}

// applyNoise injects false presences and absences per line.
func (o *Oracle) applyNoise(set probe.LineSet) probe.LineSet {
	return applyNoise(&o.cfg, o.noise, o.lines, set)
}

// applyNoise is shared by the GIFT-64 and GIFT-128 oracles. The line
// set is the victim's access pattern — secret-derived — so the
// membership branch below is a (simulation-side) secret-dependent
// branch the leakage pass keeps on the books.
//
//grinch:secret set return
func applyNoise(cfg *Config, noise *rng.Source, lines int, set probe.LineSet) probe.LineSet {
	if cfg.FalsePresence == 0 && cfg.FalseAbsence == 0 {
		return set
	}
	out := set
	for l := 0; l < lines; l++ {
		if set.Contains(l) {
			if cfg.FalseAbsence > 0 && noise.Float64() < cfg.FalseAbsence {
				out &^= 1 << l
			}
		} else {
			if cfg.FalsePresence > 0 && noise.Float64() < cfg.FalsePresence {
				out = out.Add(l)
			}
		}
	}
	return out
}

// compile-time interface check
var _ probe.Channel = (*Oracle)(nil)
