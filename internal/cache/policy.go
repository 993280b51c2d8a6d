package cache

import "grinch/internal/rng"

// Policy chooses eviction victims within a set. Implementations receive
// Touch on every hit, Insert on every fill, and Invalidate on flushes.
// A Policy instance belongs to exactly one Cache.
type Policy interface {
	// Reset prepares the policy for a cache with the given geometry,
	// discarding all history. It may be called again to empty the
	// policy for reuse.
	Reset(sets, ways int)
	// Touch records a hit on (set, way).
	Touch(set, way int)
	// Insert records a fill of (set, way).
	Insert(set, way int)
	// Invalidate records that (set, way) was flushed.
	Invalidate(set, way int)
	// Victim picks the way to evict from a full set.
	Victim(set int) int
	// Name identifies the policy in experiment output.
	Name() string
}

// lru implements true least-recently-used replacement with per-way
// logical timestamps.
type lru struct {
	ways  int
	clock uint64
	last  []uint64 // sets × ways; 0 = never used
}

// NewLRU returns a least-recently-used policy (the default, and the
// paper's platform behaviour).
func NewLRU() Policy { return &lru{} }

func (p *lru) Name() string { return "lru" }

func (p *lru) Reset(sets, ways int) {
	p.ways = ways
	p.clock = 0
	p.last = zeroed(p.last, sets*ways)
}

func (p *lru) stamp(set, way int) {
	p.clock++
	p.last[set*p.ways+way] = p.clock
}

func (p *lru) Touch(set, way int)  { p.stamp(set, way) }
func (p *lru) Insert(set, way int) { p.stamp(set, way) }
func (p *lru) Invalidate(set, way int) {
	p.last[set*p.ways+way] = 0
}

func (p *lru) Victim(set int) int {
	base := set * p.ways
	best, bestT := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if t := p.last[base+w]; t < bestT {
			best, bestT = w, t
		}
	}
	return best
}

// fifo implements first-in-first-out replacement: the victim is the way
// filled longest ago, regardless of hits.
type fifo struct {
	ways  int
	clock uint64
	fill  []uint64
}

// NewFIFO returns a first-in-first-out policy.
func NewFIFO() Policy { return &fifo{} }

func (p *fifo) Name() string { return "fifo" }

func (p *fifo) Reset(sets, ways int) {
	p.ways = ways
	p.clock = 0
	p.fill = zeroed(p.fill, sets*ways)
}

func (p *fifo) Touch(int, int) {}

func (p *fifo) Insert(set, way int) {
	p.clock++
	p.fill[set*p.ways+way] = p.clock
}

func (p *fifo) Invalidate(set, way int) {
	p.fill[set*p.ways+way] = 0
}

func (p *fifo) Victim(set int) int {
	base := set * p.ways
	best, bestT := 0, p.fill[base]
	for w := 1; w < p.ways; w++ {
		if t := p.fill[base+w]; t < bestT {
			best, bestT = w, t
		}
	}
	return best
}

// random evicts a uniformly random way, driven by a deterministic seeded
// generator so simulations stay reproducible.
type random struct {
	ways int
	src  rng.Source
	seed uint64
}

// NewRandom returns a random-replacement policy seeded deterministically.
func NewRandom(seed uint64) Policy { return &random{seed: seed} }

func (p *random) Name() string { return "random" }

func (p *random) Reset(sets, ways int) {
	p.ways = ways
	p.src.Reseed(p.seed)
}

func (p *random) Touch(int, int)      {}
func (p *random) Insert(int, int)     {}
func (p *random) Invalidate(int, int) {}

func (p *random) Victim(int) int { return p.src.Intn(p.ways) }

// plru implements tree-based pseudo-LRU (the common hardware
// approximation of LRU for high associativity). Ways must be a power of
// two; for other associativities the tree is sized to the next power of
// two and out-of-range victims fall back to way 0.
type plru struct {
	ways  int
	nodes int
	bits  []bool // sets × nodes: one tree of direction bits per set
}

// NewPLRU returns a tree-based pseudo-LRU policy.
func NewPLRU() Policy { return &plru{} }

func (p *plru) Name() string { return "plru" }

func (p *plru) Reset(sets, ways int) {
	p.ways = ways
	n := 1
	for n < ways {
		n <<= 1
	}
	p.nodes = n - 1
	p.bits = zeroed(p.bits, sets*p.nodes)
}

// touchPath flips the tree bits along the path to way so they point away
// from it.
func (p *plru) touchPath(set, way int) {
	if p.nodes == 0 {
		return
	}
	tree := p.bits[set*p.nodes:]
	node := 0
	span := p.nodes + 1 // leaves under current node
	for span > 1 {
		span /= 2
		right := way%(span*2) >= span
		tree[node] = !right // point away from the touched half
		if right {
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
}

func (p *plru) Touch(set, way int)      { p.touchPath(set, way) }
func (p *plru) Insert(set, way int)     { p.touchPath(set, way) }
func (p *plru) Invalidate(set, way int) {}

func (p *plru) Victim(set int) int {
	if p.nodes == 0 {
		return 0
	}
	tree := p.bits[set*p.nodes:]
	node, way := 0, 0
	span := p.nodes + 1
	for span > 1 {
		span /= 2
		if tree[node] {
			way += span
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	if way >= p.ways {
		return 0
	}
	return way
}

// zeroed returns s resized to n zero elements, reusing its array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// PolicyByName constructs a policy from its experiment-output name.
// Unknown names return nil.
func PolicyByName(name string, seed uint64) Policy {
	switch name {
	case "lru":
		return NewLRU()
	case "fifo":
		return NewFIFO()
	case "random":
		return NewRandom(seed)
	case "plru":
		return NewPLRU()
	}
	return nil
}
