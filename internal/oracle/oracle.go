// Package oracle provides the ideal observation channel the GRINCH paper
// uses for its first two experiments ("For the first two experiments,
// RTL simulations were used to collect clean data"): the exact set of
// S-box table lines touched between the probe's flush point and the
// probe itself, with configurable probing round, flush behaviour, cache
// line width and optional injected noise.
//
// The channel semantics (DESIGN.md §4): when the attack targets round
// key t, its signal round is s = t+lead — t+1 for GIFT, whose round key
// is added after SubCells, and t for PRESENT, which adds it before —
// and with the probe landing ProbeRound−1 rounds after the signal round
// the observed set covers rounds
//
//	[s, s+ProbeRound−1]  with flush (the flush lands just before the
//	                     round-s lookups)
//	[1, s+ProbeRound−1]  without flush (stale earlier accesses remain)
//
// clamped to the cipher's last round, so ProbeRound = 1 is the cleanest
// channel (exactly the signal round) and larger values accumulate noise
// rounds, reproducing Fig. 3. One generic trace core implements that
// rule for every victim; Oracle, Oracle128 and OracleP are its GIFT-64,
// GIFT-128 and PRESENT faces.
package oracle

import (
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/present"
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
	return validateNoise("FalseAbsence", c.FalseAbsence)
}

// lineShift is log2(LineWords): Validate admits only powers of two, so
// an S-box index maps to its table line with a shift, not a division.
func (c Config) lineShift() uint { return uint(bits.TrailingZeros(uint(c.LineWords))) }

// flushReloadOnly rejects ProbeEvictTime for the channels that only
// model Flush+Reload (GIFT-128, PRESENT and the cache hierarchy): they
// have no masked collect, so an Evict+Time configuration would silently
// probe every line.
func flushReloadOnly(cfg Config) error {
	if cfg.Probe != ProbeFlushReload {
		return fmt.Errorf("oracle: probe mode %d is not supported by this victim's oracle (Flush+Reload only)", cfg.Probe)
	}
	return nil
}

// validateNoise checks one noise probability field, naming the
// offending field and value in the error. Every trace oracle shares
// this range: [0,1) — a probability of exactly 1 would make every
// observation pure noise and is always a config mistake.
func validateNoise(field string, v float64) error {
	if v < 0 || v >= 1 {
		return fmt.Errorf("oracle: %s = %v out of range [0,1)", field, v)
	}
	return nil
}

// Victim is the one victim contract of the trace oracles: the address
// stream the cache leaks. SBoxInputsAppend appends to dst the S-box
// input states of the first n rounds of encrypting pt — the nibbles of
// element r−1 are round r's table indices — clamping n to the round
// count, and returns the extended slice; the oracle reuses one buffer
// across encryptions. gift.Cipher64, gift.Cipher128, present.Cipher80,
// present.Cipher128, cofb.AEAD and countermeasure.WhitenedCipher64
// implement it, which lets the same oracle demonstrate the
// countermeasures.
type Victim[W any] interface {
	SBoxInputsAppend(dst []W, pt W, n int) []W
}

// cipherSpec describes a victim cipher to the trace core.
type cipherSpec[W any] struct {
	name   string // the Cipher label of encryption_start events
	rounds int
	// lead is the signal round's offset from the target round key: 1
	// for GIFT (key added after SubCells), 0 for PRESENT (added before).
	lead int
	// fold returns the table lines one round state's S-box lookups
	// touch, with shift mapping an index to its line.
	fold func(s W, shift uint) probe.LineSet
}

// The victim table: PRESENT's state is 16 nibble indices like GIFT-64's.
var (
	gift64Spec  = cipherSpec[uint64]{name: "GIFT-64", rounds: gift.Rounds64, lead: 1, fold: fold64}
	gift128Spec = cipherSpec[bitutil.Word128]{name: "GIFT-128", rounds: gift.Rounds128, lead: 1, fold: fold128}
	presentSpec = cipherSpec[uint64]{name: "PRESENT-80", rounds: present.Rounds, lead: 0, fold: fold64}
)

// fold64 folds the 16 nibble indices of a 64-bit round state into
// lines. Nibble i's line is (s>>4i & 0xf)>>shift = t>>4i & m with
// t = s>>shift and m = 0xf>>shift, so each term is a constant shift and
// a mask: the compiler proves every line below 16 (no shift-bound mask)
// and the four OR chains run in parallel. No table lookup — a
// state-indexed table would leak the index through the cache.
//
//grinch:secret s
func fold64(s uint64, shift uint) probe.LineSet {
	t, m := s>>shift, uint64(0xf)>>shift
	a := 1<<(t&m) | 1<<(t>>16&m) | 1<<(t>>32&m) | 1<<(t>>48&m)
	b := 1<<(t>>4&m) | 1<<(t>>20&m) | 1<<(t>>36&m) | 1<<(t>>52&m)
	c := 1<<(t>>8&m) | 1<<(t>>24&m) | 1<<(t>>40&m) | 1<<(t>>56&m)
	d := 1<<(t>>12&m) | 1<<(t>>28&m) | 1<<(t>>44&m) | 1<<(t>>60&m)
	return probe.LineSet(a | b | c | d)
}

// fold128 folds the 32 nibble indices of a GIFT-128 round state.
//
//grinch:secret s
func fold128(s bitutil.Word128, shift uint) probe.LineSet {
	return fold64(s.Lo, shift) | fold64(s.Hi, shift)
}

// trace is the generic core of every trace oracle: one probe window,
// one victim trace, one line fold and one commit per observation.
type trace[W any] struct {
	spec   *cipherSpec[W]
	cfg    Config
	victim Victim[W] //grinch:secret
	noise  *rng.Source
	lines  int
	// shift maps an S-box index to its table line (Config.lineShift).
	shift       uint
	encryptions uint64
	events      obs.Tracer
	// states is the reusable victim-trace buffer, reset per encryption.
	states []W
}

// newTrace validates cfg and builds the core over victim v.
//
//grinch:secret v
func newTrace[W any](spec *cipherSpec[W], v Victim[W], cfg Config) (trace[W], error) {
	if err := cfg.Validate(); err != nil {
		return trace[W]{}, err
	}
	return trace[W]{
		spec:   spec,
		cfg:    cfg,
		victim: v,
		noise:  rng.New(cfg.Seed),
		lines:  16 / cfg.LineWords,
		shift:  cfg.lineShift(),
	}, nil
}

// Lines returns the number of cache lines the S-box table spans.
func (t *trace[W]) Lines() int { return t.lines }

// Encryptions returns how many encryptions the victim has performed for
// this channel (the attack-effort metric).
func (t *trace[W]) Encryptions() uint64 { return t.encryptions }

// SetTracer attaches an event tracer (nil disables tracing). The
// channel emits encryption_start/encryption_end per observation.
func (t *trace[W]) SetTracer(tr obs.Tracer) { t.events = tr }

// window returns the rounds [first, last] whose lookups the probe
// observes for an attack on round key targetRound (package doc).
func (t *trace[W]) window(targetRound int) (first, last int) {
	signal := targetRound + t.spec.lead
	first = 1
	if t.cfg.Flush {
		first = signal
	}
	return first, min(signal+t.cfg.ProbeRound-1, t.spec.rounds)
}

// Collect runs one victim encryption of pt and returns the line set the
// probe observes when the attack targets round key targetRound.
func (t *trace[W]) Collect(pt W, targetRound int) probe.LineSet {
	first, last := t.window(targetRound)
	t.states = t.victim.SBoxInputsAppend(t.states[:0], pt, last)
	var set probe.LineSet
	for r := first; r <= last; r++ {
		set |= t.spec.fold(t.states[r-1], t.shift)
	}
	return t.commit(set, targetRound)
}

// commit turns one encryption's raw, noise-free line set into the
// observation: the encryption counter, encryption_start, the noise
// draws in line order, then encryption_end. Every observation goes
// through it, traced now (Collect) or primed earlier (CollectPrimed).
func (t *trace[W]) commit(raw probe.LineSet, targetRound int) probe.LineSet {
	t.encryptions++
	if t.events == nil {
		return applyNoise(&t.cfg, t.noise, t.lines, raw)
	}
	t.events.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: t.encryptions, Cipher: t.spec.name, Round: targetRound})
	set := applyNoise(&t.cfg, t.noise, t.lines, raw)
	t.events.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: t.encryptions})
	return set
}

// applyNoise injects false presences and absences per line; every trace
// oracle's commit draws through it. The line set is the victim's access
// pattern — secret-derived — so the membership branch below is a
// (simulation-side) secret-dependent branch the leakage pass keeps on
// the books.
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

// Oracle is an ideal probing channel against a GIFT-64 victim. It
// implements probe.Channel, probe.MaskedChannel and probe.BatchChannel.
type Oracle struct {
	trace[uint64]
	cipher *gift.Cipher64 //grinch:secret
	// cursor cycles the evicted line in Evict+Time mode.
	cursor int
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

// NewFromTracer builds an oracle over any traced GIFT-64 victim.
//
//grinch:secret tr
func NewFromTracer(tr Victim[uint64], cfg Config) (*Oracle, error) {
	t, err := newTrace(&gift64Spec, tr, cfg)
	if err != nil {
		return nil, err
	}
	return &Oracle{trace: t}, nil
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

// Cipher exposes the victim cipher when the oracle was built with New
// (nil for NewFromTracer victims); tests use it to verify recovery.
func (o *Oracle) Cipher() *gift.Cipher64 { return o.cipher }

// CollectMasked implements probe.MaskedChannel: under Evict+Time the
// attacker learns one line's membership per encryption; under
// Flush+Reload the mask covers the whole table.
func (o *Oracle) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	return o.mask(o.Collect(pt, targetRound))
}

// mask is the probe primitive's view of one committed observation: the
// whole table under Flush+Reload, the next line of the Evict+Time
// cursor otherwise.
func (o *Oracle) mask(set probe.LineSet) (probe.LineSet, probe.LineSet) {
	if o.cfg.Probe != ProbeEvictTime {
		return set, probe.FullSet(o.lines)
	}
	mask := probe.LineSet(0).Add(o.cursor)
	o.cursor = (o.cursor + 1) % o.lines
	return set.Intersect(mask), mask
}

// compile-time interface check
var _ probe.MaskedChannel = (*Oracle)(nil)
