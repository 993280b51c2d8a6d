package core

import "errors"

// SegmentStatus is one per-segment elimination outcome inside a
// PartialResult: what the attack knew about segment (Round, Segment)
// when the run stopped.
type SegmentStatus struct {
	Round   int `json:"round"`
	Segment int `json:"segment"`
	// Converged reports whether the elimination pinned a single line.
	Converged bool `json:"converged"`
	// Line is the converged table line (-1 when not converged or not
	// attempted).
	Line int `json:"line"`
	// Observations is the elimination's observation count (summed over
	// restarts).
	Observations uint64 `json:"observations"`
	// Restarts / Retries are the recovery actions the segment consumed.
	Restarts int    `json:"restarts,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	// Confidence is the converged survivor's presence-ratio separation
	// from the strongest eliminated line, in [0,1].
	Confidence float64 `json:"confidence,omitempty"`
}

// status assembles the SegmentStatus of an outcome for segment
// (round, segment).
func (o TargetOutcome) status(round, segment int) SegmentStatus {
	return SegmentStatus{
		Round:        round,
		Segment:      segment,
		Converged:    o.Converged,
		Line:         o.Line,
		Observations: o.Observations,
		Restarts:     o.Restarts,
		Retries:      o.Retries,
		Confidence:   o.Confidence,
	}
}

// PartialResult is the graceful-degradation report of an attack that
// did not fully recover the key: instead of collapsing everything the
// run learned into ErrNoConvergence, it preserves how far the attack
// got — fully-resolved round keys, per-segment status of the failing
// pass, and a machine-readable reason.
type PartialResult struct {
	// Cipher labels the victim ("GIFT-64", "GIFT-128", "PRESENT").
	Cipher string `json:"cipher"`
	// ResolvedRounds is how many round keys were fully recovered before
	// the failure (each pins 32 master-key bits for GIFT-64, 64 for
	// GIFT-128 and PRESENT).
	ResolvedRounds int `json:"resolved_rounds"`
	// Segments holds the failing round pass's per-segment statuses, in
	// segment order; segments the pass never reached appear with
	// Line == -1 and zero observations.
	Segments []SegmentStatus `json:"segments"`
	// Encryptions is the total victim encryptions the run consumed.
	Encryptions uint64 `json:"encryptions"`
	// Reason classifies the stop: "no-convergence", "budget-exceeded",
	// "sim-deadline", "channel-transient" (retries exhausted on a
	// transient fault) or "error".
	Reason string `json:"reason"`
}

// Converged returns how many segments of the failing pass converged.
func (p *PartialResult) Converged() int {
	n := 0
	for _, s := range p.Segments {
		if s.Converged {
			n++
		}
	}
	return n
}

// Confidence returns the mean confidence over the failing pass's
// converged segments (0 when none converged).
func (p *PartialResult) Confidence() float64 {
	var sum float64
	n := 0
	for _, s := range p.Segments {
		if s.Converged {
			sum += s.Confidence
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// partial degrades a failed recovery into the PartialResult the
// graceful recoveries return (nil when the recovery succeeded).
func (e *engine[W, RK]) partial(r recovery[RK]) *PartialResult {
	if r.err == nil {
		return nil
	}
	p := &PartialResult{
		Cipher:         e.desc.name,
		ResolvedRounds: len(r.rks),
		Segments:       append([]SegmentStatus(nil), e.lastStatuses...),
		Encryptions:    r.encryptions,
		Reason:         Reason(r.err),
	}
	// Statuses are appended in segment order by AttackRound, so the pad
	// starts where they end.
	for g := len(e.lastStatuses); g < e.desc.segments; g++ {
		p.Segments = append(p.Segments, SegmentStatus{Round: e.lastRound, Segment: g, Line: -1})
	}
	return p
}

// Reason classifies an attack error into the stable PartialResult
// vocabulary ("budget-exceeded", "sim-deadline", "no-convergence",
// "channel-transient", "error"; "" for nil) so campaign layers report
// the same taxonomy for full errors as for partial results.
func Reason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudgetExceeded):
		return "budget-exceeded"
	case errors.Is(err, ErrSimDeadline):
		return "sim-deadline"
	case errors.Is(err, ErrNoConvergence):
		return "no-convergence"
	case isTransient(err):
		return "channel-transient"
	default:
		return "error"
	}
}
