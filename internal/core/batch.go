package core

import (
	"sync"

	"grinch/internal/gift"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// BatchMode selects between the batched attack pipeline and the scalar
// reference path.
type BatchMode int

const (
	// BatchAuto (the zero value) batches whenever the channel supports
	// probe.BatchChannel, falling back to the scalar path otherwise.
	// Results are byte-identical either way — batching only reschedules
	// when victim traces are computed, never what is observed.
	BatchAuto BatchMode = iota
	// BatchOff forces the scalar path; the differential tests run both
	// modes and require identical output.
	BatchOff
)

// Batch sizing. Crafting draws the plaintext rng, so a batch crafted
// beyond the observations actually consumed must be rewound for the rng
// stream to stay byte-identical to the scalar path. Snapshots every
// batchSnapEvery crafts bound the replay to at most batchSnapEvery−1
// re-crafts on abandon; growing refills (4→8→…→64) keep the waste
// small on fast-converging targets (a clean channel converges just past
// the default 4-observation floor, so the opening refill matches it)
// while long eliminations settle at full 64-wide batches.
//
// batchScalarMax is the scalar crossover. The bitsliced kernel costs 64
// lanes however few are live, and a speculative batch wastes whatever
// the elimination does not consume, so a refill of at most this many
// observations is not batched at all: it crafts and collects each
// observation on the scalar path, with nothing to prime or rewind.
// With the 4→8 opening, an elimination's first 12 observations are
// scalar and only longer eliminations batch.
const (
	batchSnapEvery = 8
	batchFirstSize = 4
	batchMaxSize   = 64
	batchScalarMax = 8
)

// batchPipeline is the GIFT-64 batch capability the engine plugs in
// (batchHook): it owns the channel's batch entry point and hands each
// elimination pass a pooled batchState.
type batchPipeline struct {
	ch probe.BatchChannel
	e  *engine[uint64, gift.RoundKey64]
	// refused is set by the channel's first refused prime (a
	// NewFromTracer oracle implements BatchChannel but cannot prime);
	// every later refill then stays on the scalar path.
	refused bool
}

// begin binds a pooled batchState to one elimination pass. Engine
// targets for GIFT-64 are always *TargetSpec.
func (p *batchPipeline) begin(spec target[uint64, gift.RoundKey64], rks []gift.RoundKey64) *batchState {
	bs := batchStatePool.Get().(*batchState)
	bs.p, bs.spec, bs.rks = p, spec.(*TargetSpec), rks
	bs.n, bs.idx = 0, 0
	bs.nextSize = batchFirstSize
	return bs
}

// batchState is the in-flight refill of one elimination pass: up to
// 64 crafted plaintexts, their primed raw line sets, and the rng
// snapshots needed to rewind uncommitted crafts. Pooled because sweeps
// run hundreds of thousands of eliminations.
type batchState struct {
	pts   [64]uint64
	raw   [64]probe.LineSet
	snaps [batchMaxSize / batchSnapEvery]rng.Source
	dec   gift.Batch64
	// n is the size of the current refill, idx the next entry to
	// commit.
	n, idx int
	// nextSize is the adaptive size of the next refill.
	nextSize int
	// scalar marks a refill at or below batchScalarMax, or one whose
	// prime the channel refused: nothing is crafted ahead, and each
	// entry is crafted and collected on commit.
	scalar bool
	// p, spec and rks are the pass the state is bound to.
	p    *batchPipeline
	spec *TargetSpec
	rks  []gift.RoundKey64
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

// refill starts the next refill. Past the scalar crossover it crafts
// the batch and primes it on the channel. Crafting consumes the
// plaintext rng exactly as the scalar path would, one CraftState per
// entry, with a snapshot every batchSnapEvery crafts so finish can
// rewind the tail that is never committed.
func (bs *batchState) refill() {
	e, spec := bs.p.e, bs.spec
	size := bs.nextSize
	if bs.nextSize < batchMaxSize {
		bs.nextSize *= 2
	}
	// Never craft past the encryption budget: those observations could
	// not be committed anyway.
	if b := e.cfg.TotalBudget; b > 0 {
		if rem := b - e.ch.Encryptions(); uint64(size) > rem {
			size = int(rem)
		}
	}
	bs.n, bs.idx = size, 0
	bs.scalar = size <= batchScalarMax || bs.p.refused
	if bs.scalar {
		return
	}
	for i := 0; i < size; i++ {
		if i%batchSnapEvery == 0 {
			bs.snaps[i/batchSnapEvery] = e.rng.Snapshot()
		}
		bs.pts[i] = spec.CraftState(e.rng)
	}
	if spec.Round > 1 {
		if len(bs.rks) < spec.Round-1 {
			// Match CraftPlaintext's contract for the scalar path.
			spec.CraftPlaintext(e.rng, bs.rks) // panics
		}
		for i := size; i < batchMaxSize; i++ {
			bs.pts[i] = 0
		}
		gift.PartialDecryptBatch64(&bs.pts, bs.rks, spec.Round-1, &bs.dec)
	}
	if !bs.p.ch.PrimeBatch(bs.pts[:size], spec.Round, bs.raw[:size]) {
		// Rewind every craft and serve this refill on the scalar path.
		e.rng.Restore(bs.snaps[0])
		bs.p.refused, bs.scalar = true, true
	}
}

// next produces the next observation from the batch pipeline,
// refilling when the current refill is drained. The commit itself —
// counter, events, noise, probe mask — happens inside the channel's
// CollectPrimed with the scalar path's exact side-effect order.
func (bs *batchState) next() (set, mask probe.LineSet, retries uint64, err error) {
	if bs.idx == bs.n {
		bs.refill()
	}
	i := bs.idx
	bs.idx++
	e, spec := bs.p.e, bs.spec
	if bs.scalar {
		return e.collect(spec.craft(e.rng, bs.rks), spec.Round, spec.Segment)
	}
	set, mask = bs.p.ch.CollectPrimed(bs.raw[i], spec.Round)
	return set, mask, 0, nil
}

// finish rewinds the plaintext rng over the crafted-but-uncommitted
// tail of a batched refill — restore the nearest snapshot at or before
// the commit cursor and replay the few crafts up to it, leaving the rng
// exactly where the scalar path would have — and returns the state to
// the pool. A scalar refill crafted nothing ahead and needs no rewind.
func (bs *batchState) finish() {
	if !bs.scalar && bs.idx < bs.n {
		rg := bs.p.e.rng
		rg.Restore(bs.snaps[bs.idx/batchSnapEvery])
		for i := 0; i < bs.idx%batchSnapEvery; i++ {
			bs.spec.CraftState(rg)
		}
	}
	bs.p, bs.spec, bs.rks = nil, nil, nil
	batchStatePool.Put(bs)
}
