// Package cache implements the shared-cache model used by every platform
// in this repository: a set-associative cache with configurable geometry
// (sets, ways, line size), pluggable replacement policy, flush support
// and cycle-level latency accounting.
//
// The GRINCH paper's platforms share an L1 with 1024 lines, 16-way
// set-associative, and a line size swept over 1/2/4/8 words (Table I);
// PaperConfig reproduces that geometry.
//
// The model is functional rather than structural: it tracks which line
// tags are resident per set and charges a fixed latency per hit, miss and
// flush. That is exactly the information an access-driven attacker can
// act on, so nothing the attack consumes is abstracted away.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry and its timing.
type Config struct {
	// Sets is the number of cache sets. Must be a power of two ≥ 1.
	Sets int
	// Ways is the associativity. Must be ≥ 1.
	Ways int
	// LineBytes is the line size in bytes. Must be a power of two ≥ 1.
	// The paper's platforms use 1-byte words; Table I sweeps the line
	// over 1, 2, 4 and 8 words.
	LineBytes int
	// Policy selects the replacement policy. Nil defaults to LRU.
	Policy Policy
	// HitLatency, MissLatency and FlushLatency are charged per
	// operation, in core cycles. MissLatency covers the full fetch from
	// the next level (the paper's platforms have L1 + DRAM only).
	HitLatency   uint64
	MissLatency  uint64
	FlushLatency uint64
}

// PaperConfig returns the geometry used throughout the GRINCH paper's
// experiments: 1024 lines, 16 ways (64 sets), with the given line size in
// bytes and default latencies (1-cycle hit, 30-cycle miss) roughly in
// line with a small in-order SoC.
func PaperConfig(lineBytes int) Config {
	return Config{
		Sets:         64,
		Ways:         16,
		LineBytes:    lineBytes,
		HitLatency:   1,
		MissLatency:  30,
		FlushLatency: 1,
	}
}

func (c Config) validate() error {
	if c.Sets < 1 || bits.OnesCount(uint(c.Sets)) != 1 {
		return fmt.Errorf("cache: Sets = %d must be a power of two ≥ 1", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache: Ways = %d must be ≥ 1", c.Ways)
	}
	if c.LineBytes < 1 || bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache: LineBytes = %d must be a power of two ≥ 1", c.LineBytes)
	}
	return nil
}

// Lines returns the total number of cache lines the config describes.
func (c Config) Lines() int { return c.Sets * c.Ways }

// PaperLineSizes are the cache-line sizes, in bytes, swept by the
// paper's Table I (1-byte words, lines of 1/2/4/8 words). The
// quantitative leakage model in internal/analysis and its trace
// cross-check (internal/analysis/quantcheck) share this sweep, so the
// static bits-per-observation estimates line up with the line
// geometries the campaign configs actually run.
func PaperLineSizes() []int { return []int{1, 2, 4, 8} }

// LinesSpanned returns how many cache lines a contiguous table of
// tableBytes bytes occupies with the given line size: the number of
// distinct lines an attacker probing that table can observe. Zero-size
// tables span 0 lines; lineBytes must be ≥ 1.
func LinesSpanned(tableBytes, lineBytes int) int {
	if tableBytes <= 0 || lineBytes < 1 {
		return 0
	}
	return (tableBytes + lineBytes - 1) / lineBytes
}

// Result reports the outcome of a single access.
type Result struct {
	// Hit is true when the line was already resident.
	Hit bool
	// Latency is the cycle cost of this access.
	Latency uint64
	// Set is the set index the address mapped to.
	Set int
	// Evicted is the address of the first byte of the line that was
	// evicted to make room, when Eviction is true.
	Evicted  uint64
	Eviction bool
}

// Stats accumulates cache activity counters. The counters feed the
// observability layer's cache_snapshot events (internal/obs), so their
// semantics are part of the trace contract:
//
//   - Evictions counts capacity evictions in Access (a full set
//     displacing a valid victim line);
//   - Flushes counts flush operations issued (one per FlushLine call),
//     whether or not they found a resident line;
//   - FlushedLines counts lines actually invalidated by those
//     operations — the attacker-visible flush work.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
	// FlushedLines counts resident lines invalidated by flushes.
	FlushedLines uint64
	// Cycles is the total latency charged across all operations.
	Cycles uint64
}

// Add accumulates o's counters into s — for folding the per-session
// stats of a platform's caches (an emptied, reused cache per session)
// into a running total.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Flushes += o.Flushes
	s.FlushedLines += o.FlushedLines
	s.Cycles += o.Cycles
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// platform simulations serialize accesses through the event kernel,
// which is how the modelled hardware behaves too.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	lines     []line // sets × ways, row-major
	policy    Policy
	stats     Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Policy
	if p == nil {
		p = NewLRU()
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(cfg.Sets - 1),
		lines:     make([]line, cfg.Sets*cfg.Ways),
		policy:    p,
	}
	p.Reset(cfg.Sets, cfg.Ways)
	return c, nil
}

// Reset empties the cache for reuse: every line invalid, the counters
// zero and the policy's history discarded, leaving the cache exactly as
// New built it.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = Stats{}
	c.policy.Reset(c.cfg.Sets, c.cfg.Ways)
}

// MustNew is New for configurations known good at compile time.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// lineAddr is the address stripped of its line-offset bits.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// setOf returns the set index for an address.
func (c *Cache) setOf(addr uint64) int { return int(c.lineAddr(addr) & c.setMask) }

// tagOf returns the tag for an address.
func (c *Cache) tagOf(addr uint64) uint64 {
	return c.lineAddr(addr) >> uint(bits.TrailingZeros(uint(c.cfg.Sets)))
}

// LineBase returns the address of the first byte of the line containing
// addr.
func (c *Cache) LineBase(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// Access performs one read access and returns its outcome. A miss
// allocates the line, evicting the policy's victim if the set is full.
func (c *Cache) Access(addr uint64) Result {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	c.stats.Accesses++

	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.stats.Hits++
			c.stats.Cycles += c.cfg.HitLatency
			c.policy.Touch(set, w)
			return Result{Hit: true, Latency: c.cfg.HitLatency, Set: set}
		}
	}

	// Miss: find an invalid way, otherwise evict the policy's victim.
	c.stats.Misses++
	c.stats.Cycles += c.cfg.MissLatency
	res := Result{Latency: c.cfg.MissLatency, Set: set}
	victim := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.lines[base+w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.policy.Victim(set)
		old := c.lines[base+victim]
		res.Eviction = true
		res.Evicted = c.rebuildAddr(set, old.tag)
		c.stats.Evictions++
	}
	c.lines[base+victim] = line{tag: tag, valid: true}
	c.policy.Insert(set, victim)
	return res
}

// rebuildAddr reconstructs the base address of a line from set and tag.
func (c *Cache) rebuildAddr(set int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros(uint(c.cfg.Sets)))
	return (tag<<setBits | uint64(set)) << c.lineShift
}

// Contains reports whether the line holding addr is resident, without
// touching replacement state. This is the oracle view used by tests; an
// attacker must go through Access (see internal/probe).
func (c *Cache) Contains(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.lines[base+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// FlushLine invalidates the line containing addr, if resident, charging
// FlushLatency either way. This models a clflush-style instruction, the
// primitive Flush+Reload needs.
func (c *Cache) FlushLine(addr uint64) uint64 {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	c.stats.Flushes++
	c.stats.Cycles += c.cfg.FlushLatency
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.valid = false
			c.stats.FlushedLines++
			c.policy.Invalidate(set, w)
			break
		}
	}
	return c.cfg.FlushLatency
}

// FlushRange flushes every line overlapping [addr, addr+size) and
// returns the total latency charged.
func (c *Cache) FlushRange(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var total uint64
	first := c.LineBase(addr)
	last := c.LineBase(addr + size - 1)
	for a := first; ; a += uint64(c.cfg.LineBytes) {
		total += c.FlushLine(a)
		if a == last {
			break
		}
	}
	return total
}

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }
