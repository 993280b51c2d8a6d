package faults

import (
	"grinch/internal/obs"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Stats counts injections, by fault kind, since construction. Purely
// informational (tests, summaries); the deterministic record is the
// fault_injected event stream.
type Stats struct {
	Bursts     uint64
	Drops      uint64
	Misaligns  uint64
	Transients uint64
}

// Total returns the sum over all kinds.
func (s Stats) Total() uint64 { return s.Bursts + s.Drops + s.Misaligns + s.Transients }

// decision is the resolved set of faults firing on one encryption.
type decision struct {
	drop       bool
	transient  int // firing transient fault's plan index, -1 otherwise
	offset     int // accumulated misalignment in rounds
	burst      []int
	burstNoise *rng.Source // stream for the post-collection burst noise
}

// engine is the channel-agnostic injection core: fault decisions, burst
// noise and event emission, independent of the wrapped channel.
type engine struct {
	plan   Plan
	seed   uint64
	lines  int
	tracer obs.Tracer
	stats  Stats
}

func newEngine(plan Plan, seed uint64, lines int) *engine {
	return &engine{plan: plan, seed: rng.Derive(seed, plan.Seed), lines: lines}
}

// decide resolves which faults fire on encryption enc (1-based). Every
// random draw comes from a generator seeded with rng.Derive(seed, enc),
// and draws happen in plan order, so the decision is a pure function of
// (plan, seed, enc) — independent of retries, interleaving or worker
// scheduling.
func (e *engine) decide(enc uint64) decision {
	d := decision{transient: -1}
	if e.plan.Empty() {
		return d
	}
	r := rng.New(rng.Derive(e.seed, enc))
	for i, f := range e.plan.Faults {
		if !f.active(enc) {
			continue
		}
		switch f.Kind {
		case KindTransient:
			if r.Float64() < f.prob() && d.transient < 0 {
				d.transient = i
			}
		case KindDrop:
			if r.Float64() < f.prob() {
				d.drop = true
			}
		case KindMisalign:
			d.offset += f.Offset
		case KindBurst:
			d.burst = append(d.burst, i)
		}
	}
	if len(d.burst) > 0 {
		// The burst stream is split off after all window decisions so
		// adding a drop fault to a plan does not re-phase burst noise
		// draws mid-line.
		d.burstNoise = r.Split()
	}
	return d
}

// emit records one fault firing.
func (e *engine) emit(enc uint64, kind Kind) {
	switch kind {
	case KindBurst:
		e.stats.Bursts++
	case KindDrop:
		e.stats.Drops++
	case KindMisalign:
		e.stats.Misaligns++
	case KindTransient:
		e.stats.Transients++
	}
	if e.tracer != nil {
		e.tracer.Emit(obs.Event{Kind: obs.KindFaultInjected, Enc: enc, Fault: string(kind)})
	}
}

// round applies the decision's misalignment to the target round,
// clamped to ≥ 1.
func (d decision) round(target int) int {
	r := target + d.offset
	if r < 1 {
		r = 1
	}
	return r
}

// applyBurst overlays the firing bursts' correlated noise on set.
func (e *engine) applyBurst(enc uint64, d decision, set probe.LineSet) probe.LineSet {
	out := set
	for _, fi := range d.burst {
		f := e.plan.Faults[fi]
		e.emit(enc, KindBurst)
		for l := 0; l < e.lines; l++ {
			if set.Contains(l) {
				if f.FalseAbsence > 0 && d.burstNoise.Float64() < f.FalseAbsence {
					out &^= 1 << l
				}
			} else {
				if f.FalsePresence > 0 && d.burstNoise.Float64() < f.FalsePresence {
					out = out.Add(l)
				}
			}
		}
	}
	return out
}

// Injector wraps a GIFT-64 observation channel (probe.Channel) and
// injects the plan's structured faults. It implements probe.Channel
// and probe.FallibleChannel.
//
// Semantics per fault kind, for the encryption being collected:
//
//   - transient: the victim encryption is still performed (the probe,
//     not the victim, failed) and CollectErr returns a typed
//     *TransientError. Plain Collect degrades the failure to a dropped
//     (empty) observation, for consumers without a retry path.
//   - drop: the observation is replaced with the empty set.
//   - misalign: the probe is taken at targetRound+Offset (clamped ≥ 1).
//   - burst: correlated per-line false presences/absences are overlaid
//     on the observed set.
type Injector struct {
	ch probe.Channel
	e  *engine
}

// NewInjector wraps ch with the plan. seed is combined with the plan's
// own seed (rng.Derive) to key the injection randomness; campaign jobs
// pass their private job seed so a shared plan file still draws
// independent per-job streams.
func NewInjector(ch probe.Channel, plan Plan, seed uint64) *Injector {
	return &Injector{ch: ch, e: newEngine(plan, seed, ch.Lines())}
}

// SetTracer attaches an event tracer (nil disables); the injector
// emits one fault_injected event per fault firing.
func (in *Injector) SetTracer(t obs.Tracer) { in.e.tracer = t }

// Plan returns the wrapped plan.
func (in *Injector) Plan() Plan { return in.e.plan }

// Stats returns cumulative injection counts.
func (in *Injector) Stats() Stats { return in.e.stats }

// Lines implements probe.Channel.
func (in *Injector) Lines() int { return in.ch.Lines() }

// Encryptions implements probe.Channel.
func (in *Injector) Encryptions() uint64 { return in.ch.Encryptions() }

// Collect implements probe.Channel. Transient failures degrade to
// dropped observations; retry-capable consumers should use CollectErr.
func (in *Injector) Collect(pt uint64, targetRound int) probe.LineSet {
	set, err := in.CollectErr(pt, targetRound)
	if err != nil {
		return 0
	}
	return set
}

// CollectErr implements probe.FallibleChannel.
func (in *Injector) CollectErr(pt uint64, targetRound int) (probe.LineSet, error) {
	enc := in.ch.Encryptions() + 1
	d := in.e.decide(enc)
	set := in.ch.Collect(pt, d.round(targetRound))
	if d.offset != 0 {
		in.e.emit(enc, KindMisalign)
	}
	if d.transient >= 0 {
		in.e.emit(enc, KindTransient)
		return 0, &TransientError{Enc: enc, Fault: d.transient}
	}
	if d.drop {
		in.e.emit(enc, KindDrop)
		return 0, nil
	}
	return in.e.applyBurst(enc, d, set), nil
}

// Compile-time interface checks.
var (
	_ probe.Channel         = (*Injector)(nil)
	_ probe.FallibleChannel = (*Injector)(nil)
)
