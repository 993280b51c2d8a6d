package oracle

import (
	"sync"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
)

// This file implements probe.BatchChannel for the GIFT-64 oracle: the
// victim traces of up to 64 crafted plaintexts are computed in one pass
// through the block-parallel bitsliced kernel (gift.Batch64), and the
// per-block line sets fall out of a bit-matrix transpose instead of 64
// separate nibble-extraction loops. Noise, trace events, the encryption
// counter and the Evict+Time cursor are all deferred to CollectPrimed —
// commit time — so the batch is pure speculation and the channel's
// observable byte stream is identical to the scalar path's.

// batchScratch is the reusable workspace of one PrimeBatch call, pooled
// so sweeps with thousands of batches allocate it once per P.
type batchScratch struct {
	pts [64]uint64
	// st/st2 are the ping-pong pair of the fused bitsliced round pass.
	st, st2 gift.Batch64
	// occ[L] accumulates, over the probe window's rounds, the 64-wide
	// lane mask of blocks that touched table line L; the trailing 48
	// words stay zero so the final transpose reads it as a full 64×64
	// matrix whose row L is line L's occupancy.
	occ [64]uint64
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// PrimeBatch implements probe.BatchChannel. It requires the real
// GIFT-64 victim built by New: foreign tracer implementations
// (countermeasure ciphers) cannot run the bitsliced kernel and force
// the scalar path. The kernel costs 64 lanes however few are live, so
// the attack core only primes batches past its scalar crossover.
func (o *Oracle) PrimeBatch(pts []uint64, targetRound int, raw []probe.LineSet) bool {
	if o.cipher == nil || len(pts) == 0 || len(pts) > 64 || len(raw) < len(pts) { //grinchvet:ignore secret-branch capacity check reads only slice lengths and nil-ness, never plaintext contents
		return false
	}
	first, last := o.window(targetRound)
	sc := batchScratchPool.Get().(*batchScratch)
	n := copy(sc.pts[:], pts)
	for i := n; i < 64; i++ {
		sc.pts[i] = 0
	}
	sc.occ = [64]uint64{}
	o.cipher.TraceBatch(&sc.pts, first, last, &sc.st, &sc.st2, func(_ int, st *gift.Batch64) {
		accumulateLines(st, o.shift, &sc.occ)
	})
	// Pivot line-major occupancy into block-major sets: after the
	// transpose, word j holds block j's raw line set.
	bitutil.Transpose64(&sc.occ)
	for i := 0; i < n; i++ {
		raw[i] = probe.LineSet(sc.occ[i])
	}
	batchScratchPool.Put(sc)
	return true
}

// accumulateLines ORs each table line's 64-wide occupancy mask into
// occ: block j touches line L during this round when some segment's
// S-box index has its high (4−shift) bits equal to L, where
// lineWords = 1<<shift entries share a cache line. The match is a
// bitsliced demultiplex of each segment's four index planes — boolean
// lane operations only, no secret-indexed access and no secret branch,
// which is exactly why this path can be both fast and leak-free. Each
// line width dispatches to its own demux so the per-line accumulators
// are named locals the compiler keeps in registers across all 16
// segments, rather than dynamically indexed stack arrays.
//
//grinch:secret st
func accumulateLines(st *gift.Batch64, shift uint, occ *[64]uint64) {
	switch shift {
	case 0:
		accumulateLines16(st, occ)
	case 1:
		accumulateLines8(st, occ)
	case 2:
		accumulateLines4(st, occ)
	case 3:
		accumulateLines2(st, occ)
	default: // one line: every access lands on it
		occ[0] = ^uint64(0)
	}
}

// accumulateLines16 demuxes the full 4-bit index (lineWords = 1).
//
//grinch:secret st
func accumulateLines16(st *gift.Batch64, occ *[64]uint64) {
	for s := 0; s < 64; s += 4 {
		p0, p1, p2, p3 := st[s], st[s+1], st[s+2], st[s+3]
		n0, n1, n2, n3 := ^p0, ^p1, ^p2, ^p3
		l0, l1, l2, l3 := n0&n1, p0&n1, n0&p1, p0&p1
		h0, h1, h2, h3 := n2&n3, p2&n3, n2&p3, p2&p3
		occ[0] |= l0 & h0
		occ[1] |= l1 & h0
		occ[2] |= l2 & h0
		occ[3] |= l3 & h0
		occ[4] |= l0 & h1
		occ[5] |= l1 & h1
		occ[6] |= l2 & h1
		occ[7] |= l3 & h1
		occ[8] |= l0 & h2
		occ[9] |= l1 & h2
		occ[10] |= l2 & h2
		occ[11] |= l3 & h2
		occ[12] |= l0 & h3
		occ[13] |= l1 & h3
		occ[14] |= l2 & h3
		occ[15] |= l3 & h3
	}
}

// accumulateLines8 demuxes index bits 1..3 (lineWords = 2).
//
//grinch:secret st
func accumulateLines8(st *gift.Batch64, occ *[64]uint64) {
	var o0, o1, o2, o3, o4, o5, o6, o7 uint64
	for s := 0; s < 64; s += 4 {
		p1, p2, p3 := st[s+1], st[s+2], st[s+3]
		n1, n2, n3 := ^p1, ^p2, ^p3
		h0, h1, h2, h3 := n2&n3, p2&n3, n2&p3, p2&p3
		o0 |= n1 & h0
		o1 |= p1 & h0
		o2 |= n1 & h1
		o3 |= p1 & h1
		o4 |= n1 & h2
		o5 |= p1 & h2
		o6 |= n1 & h3
		o7 |= p1 & h3
	}
	occ[0] |= o0
	occ[1] |= o1
	occ[2] |= o2
	occ[3] |= o3
	occ[4] |= o4
	occ[5] |= o5
	occ[6] |= o6
	occ[7] |= o7
}

// accumulateLines4 demuxes index bits 2..3 (lineWords = 4).
//
//grinch:secret st
func accumulateLines4(st *gift.Batch64, occ *[64]uint64) {
	var o0, o1, o2, o3 uint64
	for s := 0; s < 64; s += 4 {
		p2, p3 := st[s+2], st[s+3]
		n2, n3 := ^p2, ^p3
		o0 |= n2 & n3
		o1 |= p2 & n3
		o2 |= n2 & p3
		o3 |= p2 & p3
	}
	occ[0] |= o0
	occ[1] |= o1
	occ[2] |= o2
	occ[3] |= o3
}

// accumulateLines2 demuxes index bit 3 (lineWords = 8).
//
//grinch:secret st
func accumulateLines2(st *gift.Batch64, occ *[64]uint64) {
	var o0, o1 uint64
	for s := 0; s < 64; s += 4 {
		p3 := st[s+3]
		o0 |= ^p3
		o1 |= p3
	}
	occ[0] |= o0
	occ[1] |= o1
}

// CollectPrimed implements probe.BatchChannel: it commits one primed
// observation with the exact side-effect sequence of CollectMasked —
// counter, encryption_start/end events, noise draws in line order, then
// the Evict+Time cursor.
func (o *Oracle) CollectPrimed(raw probe.LineSet, targetRound int) (set, mask probe.LineSet) {
	return o.mask(o.commit(raw, targetRound))
}

// compile-time interface check
var _ probe.BatchChannel = (*Oracle)(nil)
