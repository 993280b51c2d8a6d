package core

import (
	"math/bits"

	"grinch/internal/probe"
)

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
// Internally the strict mode runs on EliminatorLanes, a bitset-parallel
// accumulator: the candidate set is a single uint64 AND-mask and the
// per-line presence counts accumulate in packed 4-bit SWAR lanes — one
// observation costs a handful of word ops regardless of the line count,
// with a flush into the exact count arrays every 15 observations. The
// first partially-masked observation (an Evict+Time probe) or a relaxed
// threshold drops the eliminator back to the exact per-line counting
// path; results are identical either way, only the bookkeeping schedule
// differs.
type Eliminator struct {
	lines     int
	threshold float64
	full      probe.LineSet
	counts    [64]uint64
	probed    [64]uint64 // how many observations actually examined each line
	n         uint64
	lanes     EliminatorLanes
}

// EliminatorLanes is the strict-intersection fast path: observations
// are full line sets, so the surviving candidates are one running
// AND-mask and the presence counts are deferred into acc — word w holds
// 4-bit counters for lines 16w..16w+15, filled from a byte-spread table
// (two lookups per 16 lines). nacc counts observations accumulated
// since the last flush; it must stay below 16 so no nibble overflows.
type EliminatorLanes struct {
	active    bool
	survivors probe.LineSet
	acc       [4]uint64
	nacc      int
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

// Reset (re)initialises the eliminator in place over the given number
// of table lines. threshold must be in (0, 1]; 1 means strict
// intersection. The attack loops keep one Eliminator value per target
// and Reset it between restarts instead of reallocating.
func (e *Eliminator) Reset(lines int, threshold float64) {
	if lines < 1 || lines > 64 {
		panic("core: eliminator needs 1..64 lines")
	}
	if threshold <= 0 || threshold > 1 {
		panic("core: threshold must be in (0,1]")
	}
	*e = Eliminator{
		lines:     lines,
		threshold: threshold,
		full:      probe.FullSet(lines),
	}
	e.lanes = EliminatorLanes{
		active:    threshold == 1,
		survivors: e.full,
	}
}

// ObserveMasked folds a partially-probed observation in: only the lines
// in mask were examined this encryption (an Evict+Time attacker tests a
// single line per run; Flush+Reload examines them all). Lines outside
// the mask are neither credited nor debited.
func (e *Eliminator) ObserveMasked(set, mask probe.LineSet) {
	if e.lanes.active {
		if mask&e.full == e.full {
			e.n++
			s := set & e.full
			e.lanes.survivors &= s
			w := uint64(s)
			e.lanes.acc[0] += uint64(laneSpread[w&0xff]) | uint64(laneSpread[w>>8&0xff])<<32
			if w >>= 16; w != 0 {
				e.lanes.acc[1] += uint64(laneSpread[w&0xff]) | uint64(laneSpread[w>>8&0xff])<<32
				if w >>= 16; w != 0 {
					e.lanes.acc[2] += uint64(laneSpread[w&0xff]) | uint64(laneSpread[w>>8&0xff])<<32
					if w >>= 16; w != 0 {
						e.lanes.acc[3] += uint64(laneSpread[w&0xff]) | uint64(laneSpread[w>>8&0xff])<<32
					}
				}
			}
			e.lanes.nacc++
			if e.lanes.nacc == 15 {
				e.foldPending()
			}
			return
		}
		e.leaveLanes()
	}
	e.n++
	for m := uint64(mask & e.full); m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		e.probed[l]++
		if set.Contains(l) {
			e.counts[l]++
		}
	}
}

// foldPending flushes the packed 4-bit presence counters into the
// exact count arrays. Lane mode stays active; the flush runs every 15
// observations (before any nibble can overflow) and on any query that
// needs exact counts.
func (e *Eliminator) foldPending() {
	np := e.lanes.nacc
	if np == 0 {
		return
	}
	for l := 0; l < e.lines; l++ {
		e.probed[l] += uint64(np)
		e.counts[l] += e.lanes.acc[l>>4] >> (4 * (l & 15)) & 0xf
	}
	e.lanes.acc = [4]uint64{}
	e.lanes.nacc = 0
}

// leaveLanes settles the deferred counts and switches to exact per-line
// bookkeeping — required once a partial mask arrives, because lane mode
// assumes every observation examined every line.
func (e *Eliminator) leaveLanes() {
	e.foldPending()
	e.lanes.active = false
}

// Observations returns how many observations have been folded in.
func (e *Eliminator) Observations() uint64 { return e.n }

// qualifies reports whether line l still meets the threshold.
func (e *Eliminator) qualifies(l int) bool {
	if e.probed[l] == 0 {
		return true // never examined: cannot be ruled out
	}
	if e.threshold == 1 {
		return e.counts[l] == e.probed[l]
	}
	req := uint64(e.threshold * float64(e.probed[l]))
	if req < 1 {
		req = 1
	}
	return e.counts[l] >= req
}

// Candidates returns the lines that still qualify.
func (e *Eliminator) Candidates() probe.LineSet {
	if e.n == 0 {
		return e.full
	}
	if e.lanes.active {
		return e.lanes.survivors
	}
	var set probe.LineSet
	for l := 0; l < e.lines; l++ {
		if e.qualifies(l) {
			set = set.Add(l)
		}
	}
	return set
}

// Converged reports the surviving line once exactly one candidate
// remains, every line has been examined, and the survivor has at least
// minObs examinations behind it. The lane-mode body is small enough to
// inline into the per-observation attack loop; exact bookkeeping is
// outlined.
func (e *Eliminator) Converged(minObs uint64) (line int, ok bool) {
	if e.lanes.active {
		// Every lane observation examined every line, so the sole
		// survivor has n ≥ minObs examinations by construction.
		if e.n < minObs || e.lanes.survivors.Count() != 1 {
			return -1, false
		}
		return e.lanes.survivors.Sole(), true
	}
	return e.convergedExact(minObs)
}

func (e *Eliminator) convergedExact(minObs uint64) (line int, ok bool) {
	if e.n < minObs {
		return -1, false
	}
	c := e.Candidates()
	if c.Count() != 1 {
		return -1, false
	}
	sole := c.Sole()
	if e.probed[sole] < minObs {
		return -1, false
	}
	return sole, true
}

// Exhausted reports that no candidate survives — the signature of a
// wrong crafting hypothesis (the "pinned" index was not actually pinned)
// or of destructive noise.
func (e *Eliminator) Exhausted() bool {
	if e.lanes.active {
		return e.n > 0 && e.lanes.survivors == 0
	}
	return e.exhaustedExact()
}

func (e *Eliminator) exhaustedExact() bool {
	return e.n > 0 && e.Candidates().Count() == 0
}

// PresenceRatio returns line l's appearance ratio over the observations
// that examined it (0 when never examined or out of range).
func (e *Eliminator) PresenceRatio(l int) float64 {
	if l < 0 || l >= e.lines {
		return 0
	}
	if e.lanes.active {
		e.foldPending()
	}
	if e.probed[l] == 0 {
		return 0
	}
	return float64(e.counts[l]) / float64(e.probed[l])
}
