package core

import (
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
	// BatchOff forces the scalar path: every elimination pass crafts and
	// collects one observation at a time and never primes. The
	// differential tests run both modes and require identical output.
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

// batchChannel is the optional batch capability (probe.BatchChannel's
// batch half over plaintext word W), resolved once at attacker
// construction like maskedChannel and fallibleChannel.
type batchChannel[W any] interface {
	PrimeBatch(pts []W, targetRound int, raw []probe.LineSet) bool
	CollectPrimed(raw probe.LineSet, targetRound int) (set, mask probe.LineSet)
}

// passWork is the workspace of a batched refill: up to 64 crafted
// plaintexts, their primed raw line sets, and the rng snapshots needed
// to rewind uncommitted crafts. It comes from the cipher's pool
// (cipherDesc.work) at a pass's first batched refill, because sweeps
// run hundreds of thousands of eliminations and a scalar pass never
// needs one.
type passWork[W any] struct {
	pts   [batchMaxSize]W
	raw   [batchMaxSize]probe.LineSet
	snaps [batchMaxSize / batchSnapEvery]rng.Source
}

// pass is the observation source of one elimination pass. It serves
// refills of growing size; a refill past the scalar crossover, on an
// engine with a batch channel, is crafted ahead and primed on the
// channel, and every other refill crafts and collects each observation
// on commit. A scalar run is a pass whose engine has no batch channel.
type pass[W, RK any] struct {
	e              *engine[W, RK]
	spec           target[W, RK]
	round, segment int
	rks            []RK
	work           *passWork[W]
	// n is the size of the current refill, idx the next entry to
	// commit, and nextSize the size of the next refill.
	n, idx, nextSize int
	// scalar marks a refill that crafted nothing ahead: one at or below
	// batchScalarMax, on an engine without a batch channel, or whose
	// prime the channel refused.
	scalar bool
}

// begin binds the pass to one elimination of spec at (round, segment)
// with crafting round keys rks.
func (p *pass[W, RK]) begin(e *engine[W, RK], spec target[W, RK], round, segment int, rks []RK) {
	*p = pass[W, RK]{e: e, spec: spec, round: round, segment: segment, rks: rks, nextSize: batchFirstSize}
}

// refill starts the next refill. Past the scalar crossover it crafts
// the batch and primes it on the channel. Crafting consumes the
// plaintext rng exactly as the scalar path would, one craft per entry,
// with a snapshot every batchSnapEvery crafts so finish can rewind the
// tail that is never committed. A refused prime rewinds every craft,
// serves this refill on the scalar path and drops the engine's batch
// channel, so no later refill asks again.
func (p *pass[W, RK]) refill() {
	e := p.e
	size := p.nextSize
	if p.nextSize < batchMaxSize {
		p.nextSize *= 2
	}
	// Never craft past the encryption budget: those observations could
	// not be committed anyway.
	if b := e.cfg.TotalBudget; b > 0 {
		if rem := b - e.ch.Encryptions(); uint64(size) > rem {
			size = int(rem)
		}
	}
	p.n, p.idx = size, 0
	p.scalar = size <= batchScalarMax || e.batch == nil
	if p.scalar {
		return
	}
	if p.work == nil {
		p.work, _ = e.desc.work.Get().(*passWork[W])
		if p.work == nil {
			p.work = new(passWork[W])
		}
	}
	w := p.work
	for i := 0; i < size; i++ {
		if i%batchSnapEvery == 0 {
			w.snaps[i/batchSnapEvery] = e.rng.Snapshot()
		}
		w.pts[i] = p.spec.craft(e.rng, p.rks)
	}
	if !e.batch.PrimeBatch(w.pts[:size], p.round, w.raw[:size]) {
		e.rng.Restore(w.snaps[0])
		e.batch, p.scalar = nil, true
	}
}

// next produces the next observation, refilling when the current
// refill is drained. A primed commit — counter, events, noise, probe
// mask — happens inside the channel's CollectPrimed with the scalar
// path's exact side-effect order.
func (p *pass[W, RK]) next() (set, mask probe.LineSet, retries uint64, err error) {
	if p.idx == p.n {
		p.refill()
	}
	i := p.idx
	p.idx++
	e := p.e
	if p.scalar {
		return e.collect(p.spec.craft(e.rng, p.rks), p.round, p.segment)
	}
	set, mask = e.batch.CollectPrimed(p.work.raw[i], p.round)
	return set, mask, 0, nil
}

// finish rewinds the plaintext rng over the crafted-but-uncommitted
// tail of a batched refill — restore the nearest snapshot at or before
// the commit cursor and replay the few crafts up to it, leaving the rng
// exactly where the scalar path would have — and returns the workspace
// to the cipher's pool. A scalar refill crafted nothing ahead and needs
// no rewind.
func (p *pass[W, RK]) finish() {
	w := p.work
	if w == nil {
		return
	}
	if !p.scalar && p.idx < p.n {
		rg := p.e.rng
		rg.Restore(w.snaps[p.idx/batchSnapEvery])
		for i := 0; i < p.idx%batchSnapEvery; i++ {
			p.spec.craft(rg, p.rks)
		}
	}
	p.e.desc.work.Put(w)
}
