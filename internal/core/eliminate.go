package core

import "grinch/internal/probe"

// Eliminator implements paper Step 3 (Eliminate Candidates): the pinned
// target index is present in every observation, so candidate lines are
// those that appear in (almost) all observations and the survivors
// shrink toward the target as noise lines drop out.
//
// With Threshold == 1 this is the paper's strict set intersection. A
// threshold below 1 tolerates false absences (the target line evicted
// between access and probe): a line stays candidate while its appearance
// ratio is at least the threshold.
//
// One bookkeeping path serves every probe mask and threshold. An
// observation ORs the lines it examined but did not see into absent,
// so the strict candidates are full &^ absent, and adds to packed 4-bit
// seen and skipped counters (bit 4l holds line l) that fold into the
// exact counts and examined arrays every 15 observations, before any
// nibble can overflow. An observation therefore costs a handful of word
// ops whatever the line count; only a threshold below 1 loops over
// lines, on query. The engine admits at most 16 lines, so one uint64
// holds each packed counter set.
type Eliminator struct {
	lines     int
	threshold float64
	full      probe.LineSet
	absent    probe.LineSet // lines some observation examined and did not see
	counts    [16]uint64    // folded appearances per line
	examined  [16]uint64    // folded examinations per line
	seen      uint64        // pending appearances, 4 bits per line
	skipped   uint64        // pending non-examinations, 4 bits per line
	pending   uint64        // observations not yet folded
	n         uint64
}

// laneSpread maps a byte of a line set to its nibble-spread image: bit
// i of the byte lands at bit 4i, turning a set membership into a packed
// increment for eight 4-bit counters.
var laneSpread = buildLaneSpread()

func buildLaneSpread() [256]uint32 {
	var t [256]uint32
	for b := 0; b < 256; b++ {
		var v uint32
		for i := 0; i < 8; i++ {
			v |= uint32(b>>i&1) << (4 * i)
		}
		t[b] = v
	}
	return t
}

// spread turns a set of lines 0..15 into sixteen packed 4-bit
// increments.
func spread(s probe.LineSet) uint64 {
	return uint64(laneSpread[s&0xff]) | uint64(laneSpread[s>>8&0xff])<<32
}

// Reset (re)initialises the eliminator in place over the given number
// of table lines. threshold must be in (0, 1]; 1 means strict
// intersection. The attack loops keep one Eliminator value per target
// and Reset it between restarts instead of reallocating.
func (e *Eliminator) Reset(lines int, threshold float64) {
	if lines < 1 || lines > 16 {
		panic("core: eliminator needs 1..16 lines")
	}
	if threshold <= 0 || threshold > 1 {
		panic("core: threshold must be in (0,1]")
	}
	*e = Eliminator{lines: lines, threshold: threshold, full: probe.FullSet(lines)}
}

// ObserveMasked folds a partially-probed observation in: only the lines
// in mask were examined this encryption (an Evict+Time attacker tests a
// single line per run; Flush+Reload examines them all). Lines outside
// the mask are neither credited nor debited.
func (e *Eliminator) ObserveMasked(set, mask probe.LineSet) {
	m := mask & e.full
	s := set & m
	e.n++
	e.absent |= m &^ s
	e.seen += spread(s)
	e.skipped += spread(e.full &^ m)
	if e.pending++; e.pending == 15 {
		e.fold()
	}
}

// fold settles the pending packed counters into counts and examined.
// It runs every 15 observations and before any query that needs exact
// counts, and returns at once when nothing is pending.
func (e *Eliminator) fold() {
	if e.pending == 0 {
		return
	}
	for l := 0; l < e.lines; l++ {
		e.counts[l] += e.seen >> (4 * l) & 0xf
		e.examined[l] += e.pending - e.skipped>>(4*l)&0xf
	}
	e.seen, e.skipped, e.pending = 0, 0, 0
}

// Observations returns how many observations have been folded in.
func (e *Eliminator) Observations() uint64 { return e.n }

// Candidates returns the lines that still qualify. Under strict
// intersection that is every line no observation examined and missed;
// a line never examined cannot be ruled out.
func (e *Eliminator) Candidates() probe.LineSet {
	if e.threshold < 1 {
		return e.relaxed()
	}
	return e.full &^ e.absent
}

// relaxed returns the lines whose appearance ratio meets a threshold
// below 1.
func (e *Eliminator) relaxed() probe.LineSet {
	e.fold()
	var set probe.LineSet
	for l := 0; l < e.lines; l++ {
		req := max(uint64(e.threshold*float64(e.examined[l])), 1)
		if e.examined[l] == 0 || e.counts[l] >= req {
			set = set.Add(l)
		}
	}
	return set
}

// converged reports c's sole line once c, the eliminator's current
// Candidates, holds exactly one line, every line has been examined, and
// the survivor has at least minObs examinations behind it. The attack
// loop computes the candidates once per observation and passes them in.
func (e *Eliminator) converged(c probe.LineSet, minObs uint64) (line int, ok bool) {
	if e.n < minObs || c.Count() != 1 {
		return -1, false
	}
	l := c.Sole()
	if e.examined[l]+e.pending-e.skipped>>(4*l)&0xf < minObs {
		return -1, false
	}
	return l, true
}

// PresenceRatio returns line l's appearance ratio over the observations
// that examined it (0 when never examined or out of range).
func (e *Eliminator) PresenceRatio(l int) float64 {
	if l < 0 || l >= e.lines {
		return 0
	}
	e.fold()
	if e.examined[l] == 0 {
		return 0
	}
	return float64(e.counts[l]) / float64(e.examined[l])
}
