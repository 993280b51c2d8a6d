// Package probe defines the attacker's observation channel — the set of
// S-box table cache lines seen as touched after an encryption — and the
// classical probing primitives (Flush+Reload, Prime+Probe) that realize
// it against the cache model.
//
// Everything the GRINCH attack consumes flows through the Channel
// interface, so the same attack code runs against the ideal trace oracle
// (the paper's RTL-simulation channel, package internal/oracle) and
// against the full SoC platform simulations (package internal/soc).
package probe

import (
	"fmt"
	"math/bits"
	"strings"

	"grinch/internal/cache"
	"grinch/internal/obs"
)

// LineSet is a bitmask over the cache lines backing the S-box table.
// Line 0 holds the lowest table indices. A 16-entry table with W entries
// per line occupies 16/W lines, so 16 bits always suffice; the type is
// wider to accommodate derived experiments with larger tables.
type LineSet uint64

// Add returns s with the given line marked.
func (s LineSet) Add(line int) LineSet { return s | 1<<line }

// Contains reports whether the line is marked.
func (s LineSet) Contains(line int) bool { return s&(1<<line) != 0 }

// Count returns the number of marked lines.
func (s LineSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Intersect returns the lines present in both sets.
func (s LineSet) Intersect(o LineSet) LineSet { return s & o }

// Union returns the lines present in either set.
func (s LineSet) Union(o LineSet) LineSet { return s | o }

// Lines returns the marked line numbers in ascending order.
func (s LineSet) Lines() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(v))
	}
	return out
}

// Sole returns the single marked line, or -1 unless exactly one is set.
func (s LineSet) Sole() int {
	if s.Count() != 1 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// String renders the set like "{0,3,7}".
func (s LineSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s.Lines() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", l)
	}
	b.WriteByte('}')
	return b.String()
}

// FullSet returns the set with lines 0..n-1 all marked.
func FullSet(n int) LineSet { return LineSet(1)<<n - 1 }

// Channel is one crafted-plaintext observation: encrypt pt while probing
// for the S-box accesses of round targetRound+1 (the first accesses that
// depend on round key targetRound). Implementations differ in what extra
// noise the returned set carries.
type Channel interface {
	// Collect runs one encryption of pt with the probe aimed at
	// targetRound (1-based round-key index) and returns the observed
	// line set.
	Collect(pt uint64, targetRound int) LineSet
	// Lines returns how many cache lines the S-box table spans.
	Lines() int
	// Encryptions returns the total number of encryptions the channel
	// has performed (the paper's attack-effort metric).
	Encryptions() uint64
}

// FallibleChannel is a Channel whose probes can fail outright — a
// fault-injected wrapper (internal/faults) or a future live backend.
// CollectErr performs the same observation as Collect but reports the
// failure instead of degrading it. Errors exposing a
// `Transient() bool` method (faults.TransientError does) mark the
// failure retryable; the attack core's RetryPolicy keys on that.
type FallibleChannel interface {
	Channel
	// CollectErr runs one observation; on error the victim encryption
	// may still have been consumed (the channel's Encryptions counter
	// is authoritative) but the returned set is meaningless.
	CollectErr(pt uint64, targetRound int) (LineSet, error)
}

// MaskedChannel is a Channel whose probing primitive examines only part
// of the table per encryption: an Evict+Time attacker (Osvik–Shamir–
// Tromer style, the time-driven class the paper contrasts GRINCH with)
// evicts a single line and learns only whether the victim's total time
// was elevated — one line of information per encryption, against
// Flush+Reload's sixteen.
type MaskedChannel interface {
	Channel
	// CollectMasked returns the observed set together with the mask of
	// lines actually examined this encryption.
	CollectMasked(pt uint64, targetRound int) (set, mask LineSet)
}

// BatchChannel is a Channel that can precompute many observations at
// once without committing any of them — the contract behind the batched
// attack pipeline's byte-identical-to-scalar guarantee.
//
// PrimeBatch speculatively evaluates the raw (noise-free, unmasked)
// line sets for up to 64 crafted plaintexts with no observable side
// effects: the Encryptions counter, trace events, noise stream and any
// probing cursor are untouched. CollectPrimed then commits one primed
// observation with semantics identical to Collect/CollectMasked on the
// same plaintext — counter increment, event emission, noise application
// and mask selection all happen at commit time, in commit order. An
// attack that stops mid-batch therefore leaves the channel in exactly
// the state a scalar attack would, and uncommitted speculative work
// simply evaporates.
//
// PrimeBatch returns false when the channel cannot batch the request
// (foreign victim implementations, oversized batches); the caller must
// then fall back to the scalar path for those observations.
type BatchChannel interface {
	Channel
	// PrimeBatch fills raw[i] with the side-effect-free raw line set of
	// pts[i] for the given target round. len(raw) must be ≥ len(pts).
	PrimeBatch(pts []uint64, targetRound int, raw []LineSet) bool
	// CollectPrimed commits one primed raw set, returning the observed
	// set and examined mask exactly as CollectMasked would have.
	CollectPrimed(raw LineSet, targetRound int) (set, mask LineSet)
}

// TableLayout describes where the victim's S-box table lives in memory.
type TableLayout struct {
	// Base is the address of entry 0. Must be line-aligned for the
	// index→line mapping to be exact (the reference implementation
	// aligns its tables).
	Base uint64
	// EntryBytes is the size of one table entry (1 for GIFT's byte
	// table).
	EntryBytes int
	// Entries is the table length (16 for GIFT).
	Entries int
}

// EntryAddr returns the address of table entry i.
func (t TableLayout) EntryAddr(i int) uint64 {
	return t.Base + uint64(i*t.EntryBytes)
}

// LinesIn returns how many cache lines of size lineBytes the table
// spans.
func (t TableLayout) LinesIn(lineBytes int) int {
	total := t.Entries * t.EntryBytes
	n := (total + lineBytes - 1) / lineBytes
	if n < 1 {
		n = 1
	}
	return n
}

// FlushReload implements the Flush+Reload primitive against a cache
// model: Flush evicts the table lines; Reload touches each line and
// classifies hit/miss by access latency.
type FlushReload struct {
	Cache *cache.Cache
	Table TableLayout
	// HitThreshold is the latency (cycles) at or below which a reload
	// counts as a hit. Defaults to the cache's hit latency when zero.
	HitThreshold uint64
	// Tracer, when set, receives one cache_snapshot event per Reload
	// with the cache's cumulative activity counters.
	Tracer obs.Tracer
	// Meter, when set, counts primitive operations and their cycle
	// cost (nil disables metering).
	Meter *Meter
}

// threshold returns the classification boundary.
func (fr *FlushReload) threshold() uint64 {
	if fr.HitThreshold != 0 {
		return fr.HitThreshold
	}
	return fr.Cache.Config().HitLatency
}

// Flush evicts every table line and returns the cycles spent.
func (fr *FlushReload) Flush() uint64 {
	cycles := fr.Cache.FlushRange(fr.Table.Base, uint64(fr.Table.Entries*fr.Table.EntryBytes))
	fr.Meter.op(cycles)
	return cycles
}

// Reload touches every table line and returns those that were resident,
// classifying residency by latency. The reload itself refills the lines
// (as on real hardware), so the caller must Flush again before the next
// observation window.
func (fr *FlushReload) Reload() (LineSet, uint64) {
	lineBytes := fr.Cache.Config().LineBytes
	n := fr.Table.LinesIn(lineBytes)
	var set LineSet
	var cycles uint64
	for l := 0; l < n; l++ {
		addr := fr.Table.Base + uint64(l*lineBytes)
		res := fr.Cache.Access(addr)
		cycles += res.Latency
		if res.Latency <= fr.threshold() {
			set = set.Add(l)
		}
	}
	fr.Meter.observed(cycles)
	if fr.Tracer != nil {
		fr.Tracer.Emit(CacheSnapshot(fr.Cache))
	}
	return set, cycles
}

// CacheSnapshot folds a cache's cumulative counters into a
// cache_snapshot event — the shared emission helper for every
// cache-backed channel.
func CacheSnapshot(c *cache.Cache) obs.Event {
	return CacheSnapshotStats(c.Stats())
}

// CacheSnapshotStats is CacheSnapshot for a caller that holds the
// counters rather than the cache — platform channels accumulate stats
// across throwaway per-session caches.
func CacheSnapshotStats(s cache.Stats) obs.Event {
	return obs.Event{
		Kind:         obs.KindCacheSnapshot,
		Hits:         s.Hits,
		Misses:       s.Misses,
		Evictions:    s.Evictions,
		Flushes:      s.Flushes,
		FlushedLines: s.FlushedLines,
	}
}

// PrimeProbe implements the Prime+Probe primitive: Prime fills the sets
// backing the table with attacker lines; Probe re-touches the attacker
// lines and reports the table lines whose sets showed evictions.
//
// The attacker's eviction buffer lives at EvictionBase and must map to
// the same cache sets as the table (congruent addresses).
type PrimeProbe struct {
	Cache        *cache.Cache
	Table        TableLayout
	EvictionBase uint64
	HitThreshold uint64
	// Tracer, when set, receives one cache_snapshot event per Probe.
	Tracer obs.Tracer
	// Meter, when set, counts primitive operations and their cycle
	// cost (nil disables metering).
	Meter *Meter
}

func (pp *PrimeProbe) threshold() uint64 {
	if pp.HitThreshold != 0 {
		return pp.HitThreshold
	}
	return pp.Cache.Config().HitLatency
}

// setStride returns the address distance between lines mapping to the
// same cache set.
func (pp *PrimeProbe) setStride() uint64 {
	cfg := pp.Cache.Config()
	return uint64(cfg.Sets * cfg.LineBytes)
}

// evictionAddrs returns the attacker addresses congruent to table line
// l, one per way.
func (pp *PrimeProbe) evictionAddrs(l int) []uint64 {
	cfg := pp.Cache.Config()
	lineAddr := pp.Table.Base + uint64(l*cfg.LineBytes)
	setOffset := lineAddr % pp.setStride()
	out := make([]uint64, cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		out[w] = pp.EvictionBase + uint64(w)*pp.setStride() + setOffset
	}
	return out
}

// Prime fills every cache set backing the table with attacker lines,
// evicting the victim's table data. Returns cycles spent.
func (pp *PrimeProbe) Prime() uint64 {
	lineBytes := pp.Cache.Config().LineBytes
	n := pp.Table.LinesIn(lineBytes)
	var cycles uint64
	for l := 0; l < n; l++ {
		for _, a := range pp.evictionAddrs(l) {
			cycles += pp.Cache.Access(a).Latency
		}
	}
	pp.Meter.op(cycles)
	return cycles
}

// Probe re-touches the attacker lines; a miss means the victim displaced
// one of them, i.e. the victim touched that table line's set. Returns
// the inferred touched lines and the cycles spent. Probe re-establishes
// the prime as it goes.
func (pp *PrimeProbe) Probe() (LineSet, uint64) {
	lineBytes := pp.Cache.Config().LineBytes
	n := pp.Table.LinesIn(lineBytes)
	var set LineSet
	var cycles uint64
	for l := 0; l < n; l++ {
		missed := false
		for _, a := range pp.evictionAddrs(l) {
			res := pp.Cache.Access(a)
			cycles += res.Latency
			if res.Latency > pp.threshold() {
				missed = true
			}
		}
		if missed {
			set = set.Add(l)
		}
	}
	pp.Meter.observed(cycles)
	if pp.Tracer != nil {
		pp.Tracer.Emit(CacheSnapshot(pp.Cache))
	}
	return set, cycles
}
