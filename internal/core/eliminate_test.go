package core

import (
	"testing"

	"grinch/internal/probe"
)

func TestEliminatorStrictIntersection(t *testing.T) {
	e := NewEliminator(16, 1)
	e.Observe(probe.LineSet(0b0000_1111))
	e.Observe(probe.LineSet(0b0011_0101))
	if got := e.Candidates(); got != probe.LineSet(0b0000_0101) {
		t.Fatalf("candidates = %v", got)
	}
	e.Observe(probe.LineSet(0b0000_0100))
	line, ok := e.Converged(1)
	if !ok || line != 2 {
		t.Fatalf("Converged = (%d,%v), want (2,true)", line, ok)
	}
}

func TestEliminatorBeforeObservations(t *testing.T) {
	e := NewEliminator(8, 1)
	if got := e.Candidates(); got != probe.FullSet(8) {
		t.Fatalf("initial candidates = %v", got)
	}
	if _, ok := e.Converged(0); ok {
		t.Fatal("converged with no observations")
	}
	if e.Exhausted() {
		t.Fatal("exhausted with no observations")
	}
}

func TestEliminatorExhaustion(t *testing.T) {
	e := NewEliminator(4, 1)
	e.Observe(probe.LineSet(0b0011))
	e.Observe(probe.LineSet(0b1100))
	if !e.Exhausted() {
		t.Fatal("disjoint observations should exhaust")
	}
	if _, ok := e.Converged(1); ok {
		t.Fatal("exhausted eliminator converged")
	}
}

func TestEliminatorMinObservationsGate(t *testing.T) {
	e := NewEliminator(4, 1)
	e.Observe(probe.LineSet(0b0001))
	if _, ok := e.Converged(2); ok {
		t.Fatal("converged before MinObservations")
	}
	e.Observe(probe.LineSet(0b0001))
	if line, ok := e.Converged(2); !ok || line != 0 {
		t.Fatalf("Converged = (%d,%v)", line, ok)
	}
}

func TestEliminatorThresholdToleratesAbsence(t *testing.T) {
	e := NewEliminator(4, 0.7)
	// Line 1 present in 4/5 observations (ratio 0.8 ≥ 0.7); line 2
	// present in 2/5 (0.4 < 0.7).
	sets := []probe.LineSet{0b0010, 0b0110, 0b0010, 0b0100, 0b0010}
	for _, s := range sets {
		e.Observe(s)
	}
	if got := e.Candidates(); got != probe.LineSet(0b0010) {
		t.Fatalf("candidates = %v", got)
	}
}

// TestEliminatorAdversarialExhaustThenRestart models the recovery the
// attack core performs under destructive noise: a false absence on the
// true line exhausts a strict eliminator permanently, and a fresh
// eliminator with a relaxed threshold converges on the same stream.
func TestEliminatorAdversarialExhaustThenRestart(t *testing.T) {
	// True line is 3; observation 2 misses it (false absence) and every
	// other line dies across the stream.
	stream := []probe.LineSet{
		0b1111_1000, 0b0011_0110, 0b0000_1100, 0b0110_1000,
		0b0000_1010, 0b0100_1100, 0b0000_1001, 0b0010_1000,
	}

	strict := NewEliminator(8, 1)
	for _, s := range stream {
		strict.Observe(s)
	}
	if !strict.Exhausted() {
		t.Fatal("strict eliminator should exhaust: the true line has a false absence")
	}

	// The restart path re-runs with a relaxed threshold over fresh
	// observations of the same distribution. One relaxation (0.9) is
	// still above the true line's 7/8 ratio; the second restart's 0.81
	// tolerates the loss.
	relaxed := NewEliminator(8, relaxThreshold(relaxThreshold(1)))
	for i := 0; i < 6; i++ {
		for _, s := range stream {
			relaxed.Observe(s)
		}
	}
	line, ok := relaxed.Converged(relaxedMinObservations)
	if !ok || line != 3 {
		t.Fatalf("relaxed Converged = (%d,%v), want (3,true)", line, ok)
	}
}

// TestEliminatorBurstyFalseAbsences pins threshold semantics under
// correlated (bursty) loss: the true line vanishes for a contiguous
// burst but keeps a ratio above the threshold over the full window,
// while an intermittent noise line stays below it.
func TestEliminatorBurstyFalseAbsences(t *testing.T) {
	e := NewEliminator(4, 0.75)
	true3, noise1 := probe.LineSet(0b1000), probe.LineSet(0b0010)
	for i := 0; i < 40; i++ {
		s := true3
		if i >= 10 && i < 14 {
			s = 0 // 4-observation burst: the true line disappears
		}
		if i%3 == 0 {
			s |= noise1
		}
		e.Observe(s)
	}
	// True line: 36/40 = 0.9 ≥ 0.75. Noise line: 14/40 = 0.35 < 0.75.
	line, ok := e.Converged(8)
	if !ok || line != 3 {
		t.Fatalf("Converged = (%d,%v), want (3,true)", line, ok)
	}
	// A longer burst pushes the true line below the threshold and the
	// eliminator must report exhaustion, not a fake survivor.
	e2 := NewEliminator(4, 0.75)
	for i := 0; i < 40; i++ {
		s := true3
		if i >= 10 && i < 24 {
			s = 0 // 14/40 lost: ratio 0.65 < 0.75
		}
		e2.Observe(s)
	}
	if !e2.Exhausted() {
		t.Fatalf("candidates %v, want exhaustion under a 35%% loss burst", e2.Candidates())
	}
}

// TestEliminatorMinObservationsGuardsSparseLines covers the per-line
// examination floor: under a partial mask a line seen only once must
// not be declared converged until it has minObs examinations behind it.
func TestEliminatorMinObservationsGuardsSparseLines(t *testing.T) {
	e := NewEliminator(4, 1)
	// Lines 1..3 examined and absent (eliminated); line 0 examined just
	// once and present.
	e.ObserveMasked(0b0001, 0b1111)
	e.ObserveMasked(0b0000, 0b1110)
	e.ObserveMasked(0b0000, 0b1110)
	if _, ok := e.Converged(3); ok {
		t.Fatal("line 0 declared converged on a single examination")
	}
	e.ObserveMasked(0b0001, 0b0001)
	e.ObserveMasked(0b0001, 0b0001)
	line, ok := e.Converged(3)
	if !ok || line != 0 {
		t.Fatalf("Converged = (%d,%v), want (0,true)", line, ok)
	}
}

func TestEliminatorIgnoresOutOfRangeLines(t *testing.T) {
	e := NewEliminator(2, 1)
	e.Observe(probe.LineSet(0b1111)) // lines 2,3 beyond range
	e.Observe(probe.LineSet(0b0001))
	if line, ok := e.Converged(1); !ok || line != 0 {
		t.Fatalf("Converged = (%d,%v)", line, ok)
	}
}

func TestEliminatorPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewEliminator(0, 1) },
		func() { NewEliminator(65, 1) },
		func() { NewEliminator(4, 0) },
		func() { NewEliminator(4, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestWorstPinShare(t *testing.T) {
	// The GIFT S-box is balanced; a wrong hypothesis can leave at most
	// 6/8 of the crafted inputs pinned (and at least something below 1,
	// or hypothesis testing would be impossible).
	if worstPinShare >= 1 || worstPinShare < 0.5 {
		t.Fatalf("worstPinShare = %v, expected in [0.5, 1)", worstPinShare)
	}
}

// naiveEliminator is the pre-lane reference implementation: exact
// per-line count loops, no deferred bookkeeping. The lane differential
// tests below hold the real Eliminator to this semantics bit for bit.
type naiveEliminator struct {
	lines     int
	threshold float64
	counts    [64]uint64
	probed    [64]uint64
	n         uint64
}

func (e *naiveEliminator) observe(set, mask probe.LineSet) {
	e.n++
	for _, l := range mask.Lines() {
		if l >= e.lines {
			continue
		}
		e.probed[l]++
		if set.Contains(l) {
			e.counts[l]++
		}
	}
}

func (e *naiveEliminator) candidates() probe.LineSet {
	if e.n == 0 {
		return probe.FullSet(e.lines)
	}
	var set probe.LineSet
	for l := 0; l < e.lines; l++ {
		if e.probed[l] == 0 {
			set = set.Add(l)
			continue
		}
		if e.threshold == 1 {
			if e.counts[l] == e.probed[l] {
				set = set.Add(l)
			}
			continue
		}
		req := uint64(e.threshold * float64(e.probed[l]))
		if req < 1 {
			req = 1
		}
		if e.counts[l] >= req {
			set = set.Add(l)
		}
	}
	return set
}

func (e *naiveEliminator) ratio(l int) float64 {
	if l < 0 || l >= e.lines || e.probed[l] == 0 {
		return 0
	}
	return float64(e.counts[l]) / float64(e.probed[l])
}

// elimStream produces a deterministic pseudo-random observation stream
// biased to keep line 0 always present (the pinned target).
func elimStream(seed uint64, n, lines int) []probe.LineSet {
	out := make([]probe.LineSet, n)
	x := seed | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = (probe.LineSet(x) | 1) & probe.FullSet(lines)
	}
	return out
}

// TestEliminatorLanesMatchNaive is the lane-mode differential: across
// line counts and stream lengths spanning several fold boundaries, the
// lane-accelerated strict eliminator must agree with the naive per-line
// reference on every query after every observation.
func TestEliminatorLanesMatchNaive(t *testing.T) {
	for _, lines := range []int{1, 2, 4, 8, 16, 64} {
		for _, n := range []int{1, 63, 64, 65, 130, 200} {
			e := NewEliminator(lines, 1)
			ref := &naiveEliminator{lines: lines, threshold: 1}
			for i, s := range elimStream(uint64(lines*1000+n), n, lines) {
				e.Observe(s)
				ref.observe(s, probe.FullSet(lines))
				if got, want := e.Candidates(), ref.candidates(); got != want {
					t.Fatalf("lines=%d n=%d obs %d: Candidates %v, naive %v", lines, n, i, got, want)
				}
				if got, want := e.Exhausted(), ref.candidates().Count() == 0; got != want {
					t.Fatalf("lines=%d n=%d obs %d: Exhausted %v, naive %v", lines, n, i, got, want)
				}
			}
			// Ratio queries force a fold mid-lane-mode; counts must be
			// exact and further observations must keep working.
			for l := -1; l <= lines; l++ {
				if got, want := e.PresenceRatio(l), ref.ratio(l); got != want {
					t.Fatalf("lines=%d n=%d: PresenceRatio(%d) = %v, naive %v", lines, n, l, got, want)
				}
			}
			extra := elimStream(uint64(n)+7, 70, lines)
			for _, s := range extra {
				e.Observe(s)
				ref.observe(s, probe.FullSet(lines))
			}
			if got, want := e.Candidates(), ref.candidates(); got != want {
				t.Fatalf("lines=%d n=%d post-fold: Candidates %v, naive %v", lines, n, got, want)
			}
		}
	}
}

// TestEliminatorLanesLeaveOnPartialMask proves the lane → scalar
// downgrade is seamless: a partially-masked observation arriving after
// an arbitrary number of lane observations must leave the statistics
// exactly as if every observation had been counted scalar all along.
func TestEliminatorLanesLeaveOnPartialMask(t *testing.T) {
	const lines = 8
	for _, pre := range []int{0, 3, 64, 100} {
		e := NewEliminator(lines, 1)
		ref := &naiveEliminator{lines: lines, threshold: 1}
		for _, s := range elimStream(uint64(pre)+1, pre, lines) {
			e.Observe(s)
			ref.observe(s, probe.FullSet(lines))
		}
		// Evict+Time style single-line masks, cycling.
		for i := 0; i < 3*lines; i++ {
			mask := probe.LineSet(0).Add(i % lines)
			set := probe.LineSet(0)
			if i%4 != 3 {
				set = mask
			}
			e.ObserveMasked(set, mask)
			ref.observe(set, mask)
		}
		if got, want := e.Candidates(), ref.candidates(); got != want {
			t.Fatalf("pre=%d: Candidates %v, naive %v", pre, got, want)
		}
		for l := 0; l < lines; l++ {
			if got, want := e.PresenceRatio(l), ref.ratio(l); got != want {
				t.Fatalf("pre=%d: PresenceRatio(%d) = %v, naive %v", pre, l, got, want)
			}
		}
		if e.Observations() != ref.n {
			t.Fatalf("pre=%d: n = %d, naive %d", pre, e.Observations(), ref.n)
		}
	}
}

// TestObserveMaskedZeroAllocs is the satellite-1 regression test: the
// hottest per-encryption call must not allocate, in lane mode, in the
// scalar fallback, nor across fold boundaries.
func TestObserveMaskedZeroAllocs(t *testing.T) {
	lane := NewEliminator(16, 1)
	full := probe.FullSet(16)
	if avg := testing.AllocsPerRun(1000, func() {
		lane.ObserveMasked(0b1011, full)
	}); avg != 0 {
		t.Fatalf("lane-mode ObserveMasked allocates %v per observation", avg)
	}

	scalar := NewEliminator(16, 0.9)
	mask := probe.LineSet(0b0101)
	if avg := testing.AllocsPerRun(1000, func() {
		scalar.ObserveMasked(0b0001, mask)
	}); avg != 0 {
		t.Fatalf("scalar ObserveMasked allocates %v per observation", avg)
	}
}

// TestEliminatorBoundsEdges is the satellite-2 regression test: both
// query methods must treat a negative index exactly like an index past
// the table — return the zero value, never panic.
func TestEliminatorBoundsEdges(t *testing.T) {
	e := NewEliminator(4, 1)
	e.Observe(probe.LineSet(0b0001))
	for _, l := range []int{-1, -64, 4, 63} {
		if r := e.PresenceRatio(l); r != 0 {
			t.Fatalf("PresenceRatio(%d) = %v, want 0", l, r)
		}
		if e.Recovered(l) {
			t.Fatalf("Recovered(%d) = true, want false", l)
		}
	}
	// In-range behaviour: line 0 is the sole survivor.
	if !e.Recovered(0) {
		t.Fatal("Recovered(0) = false for the sole survivor")
	}
	if e.Recovered(1) {
		t.Fatal("Recovered(1) = true for an eliminated line")
	}
	if r := e.PresenceRatio(0); r != 1 {
		t.Fatalf("PresenceRatio(0) = %v, want 1", r)
	}
	// No observations yet: nothing is recovered, even in range.
	if NewEliminator(4, 1).Recovered(0) {
		t.Fatal("Recovered(0) = true before any observation")
	}
}

// TestEliminatorResetReuses pins Reset as a full reinitialisation so
// the attack loops can keep one value per target.
func TestEliminatorResetReuses(t *testing.T) {
	e := NewEliminator(8, 1)
	for _, s := range elimStream(5, 100, 8) {
		e.Observe(s)
	}
	e.ObserveMasked(0b1, 0b1) // force scalar mode
	e.Reset(4, 0.8)
	if e.Observations() != 0 || e.Candidates() != probe.FullSet(4) {
		t.Fatalf("Reset left state: n=%d candidates=%v", e.Observations(), e.Candidates())
	}
	e.Observe(0b0010)
	if got := e.Candidates(); got != probe.LineSet(0b0010) {
		t.Fatalf("post-Reset candidates = %v", got)
	}
}
