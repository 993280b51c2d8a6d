package core

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Test-only API: constructors and observers the attack engine itself
// does not use.

// NewEliminator creates an eliminator over the given number of table
// lines. threshold must be in (0, 1]; 1 means strict intersection.
func NewEliminator(lines int, threshold float64) *Eliminator {
	e := new(Eliminator)
	e.Reset(lines, threshold)
	return e
}

// Observe folds one fully-probed line set into the statistics.
func (e *Eliminator) Observe(set probe.LineSet) { e.ObserveMasked(set, e.full) }

// Recovered reports whether line l is the sole surviving candidate.
// Out-of-range indices (negative or ≥ lines) are never recovered.
func (e *Eliminator) Recovered(l int) bool {
	if l < 0 || l >= e.lines || e.n == 0 {
		return false
	}
	c := e.Candidates()
	return c.Count() == 1 && c.Sole() == l
}

// NewTarget128 returns a copy of the GIFT-128 target specification for
// round key t and segment g.
func NewTarget128(t, g int) TargetSpec128 { return *target128(t, g) }

// CraftPlaintext is the engine's craft on a GIFT-128 target.
func (t TargetSpec128) CraftPlaintext(r *rng.Source, rks []gift.RoundKey128) bitutil.Word128 {
	return t.craft(r, rks)
}

// CraftPlaintext is the engine's craft on a PRESENT target.
func (t TargetSpecP) CraftPlaintext(r *rng.Source, rks []uint64) uint64 { return t.craft(r, rks) }
