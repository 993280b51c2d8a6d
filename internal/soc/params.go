// Package soc assembles the two hardware platforms of the GRINCH paper
// (§IV-A) from the simulation substrates:
//
//   - SingleSoC: one RISC-class processor, a shared L1 cache behind a
//     bus (a flat per-access cycle charge, no arbitration), and an
//     RTOS-style round-robin scheduler with a 10 ms quantum.
//     Victim and attacker are tasks on the same core, so the attacker
//     only observes the cache when the victim is preempted.
//
//   - MPSoC: a 3×3 tile mesh (seven processors, a shared-cache tile and
//     an I/O tile) interconnected by a NoC with XY deterministic
//     routing. The attacker owns a tile and probes concurrently with
//     the victim ("the attacker can write content to the shared cache
//     as desired", §IV-B3).
//
// Both platforms embed one probed-session skeleton: a fresh kernel,
// cache and victim (package internal/victim) per session, the victim's
// cut-over to untimed execution once the attacker stands down, and the
// probe-window bookkeeping. Each platform adds only its race, which
// spawns the victim and the attacker on its own substrate. Table II's
// race (EarliestProbeRound) stands the attacker down after its first
// window, since the metric reads nothing later. Both expose
// the same observation interface to the attack: a sequence of probe
// windows per encryption, adapted to probe.Channel by PlatformChannel.
package soc

import (
	"grinch/internal/cache"
	"grinch/internal/noc"
	"grinch/internal/probe"
	"grinch/internal/sim"
	"grinch/internal/victim"
)

// ProbePrimitive selects the single-SoC attacker's probing technique.
type ProbePrimitive int

const (
	// PrimitiveFlushReload uses the flush instruction (the paper's
	// preferred method, §III-C).
	PrimitiveFlushReload ProbePrimitive = iota
	// PrimitivePrimeProbe fills the table's cache sets with attacker
	// lines instead — the fallback when no flush instruction exists
	// ("Optionally, the attacker can flush the cache": here it can't).
	PrimitivePrimeProbe
)

// String names the primitive as used in metric labels.
func (p ProbePrimitive) String() string {
	if p == PrimitivePrimeProbe {
		return "prime_probe"
	}
	return "flush_reload"
}

// Params configures a platform.
type Params struct {
	// ClockMHz is the core (and uncore) clock. The paper evaluates 10,
	// 25 and 50 MHz.
	ClockMHz uint64
	// CacheLineBytes is the shared L1 line size in bytes (the paper's
	// word is one byte; Table I sweeps 1/2/4/8).
	CacheLineBytes int
	// TableBase is the victim S-box table's base address (line-aligned).
	TableBase uint64

	// Timing is the victim's per-round cycle budget.
	Timing victim.Timing

	// Quantum and CtxSwitchCycles configure the single-SoC RTOS
	// scheduler (paper: 10 ms quantum).
	Quantum         sim.Time
	CtxSwitchCycles uint64
	// Primitive selects the single-SoC attacker's probing technique.
	Primitive ProbePrimitive
	// EvictionBase is the attacker's eviction-buffer base address for
	// Prime+Probe (must not overlap the victim's data).
	EvictionBase uint64
	// BusCyclesPerAccess is the bus transfer cost of one memory access
	// on the single SoC, charged flat: the bus has no arbitration, as
	// only one task runs at a time on the single core.
	BusCyclesPerAccess uint64

	// Mesh configures the MPSoC NoC; VictimTile, CacheTile and
	// AttackerTile place the actors on it.
	Mesh         noc.Config
	VictimTile   noc.Coord
	CacheTile    noc.Coord
	AttackerTile noc.Coord
	// AttackerPoll is the MPSoC attacker's probe period; 0 derives a
	// quarter of a victim round time automatically.
	AttackerPoll sim.Time
}

// DefaultParams returns the paper-calibrated platform parameters for a
// clock frequency. Calibration notes:
//
//   - victim.DefaultTiming gives ≈65.5k cycles per GIFT round, matching
//     the paper's measured ≈1.2 ms per round at 50 MHz;
//   - the 10 ms quantum is the paper's stated RTOS configuration; with
//     the round budget above it lands the single-SoC attacker's first
//     probe in rounds 2/4/8 at 10/25/50 MHz (paper Table II);
//   - NoC hop and link costs give a remote cache access of ≈400 ns at
//     50 MHz, the paper's measured MPSoC probe latency.
func DefaultParams(mhz uint64) Params {
	return Params{
		ClockMHz:           mhz,
		CacheLineBytes:     1,
		TableBase:          0x1000,
		Timing:             victim.DefaultTiming(),
		Quantum:            10 * sim.Millisecond,
		CtxSwitchCycles:    200,
		EvictionBase:       0x100000,
		BusCyclesPerAccess: 4,
		Mesh: noc.Config{
			Width:        3,
			Height:       3,
			RouterCycles: 2,
			LinkCycles:   1,
			FlitBytes:    4,
		},
		VictimTile:   noc.Coord{X: 0, Y: 0},
		CacheTile:    noc.Coord{X: 1, Y: 1},
		AttackerTile: noc.Coord{X: 2, Y: 2},
	}
}

// ProbeWindow is one attacker observation: the set of table lines found
// resident at time At, covering the victim's S-box accesses from round
// FirstRound (the round in progress when the preceding flush completed)
// through LastRound (the round in progress at the reload).
type ProbeWindow struct {
	FirstRound int
	LastRound  int
	Set        probe.LineSet
	At         sim.Time
}

// Session is the record of one victim encryption observed by the
// platform's attacker.
type Session struct {
	Ciphertext uint64
	Windows    []ProbeWindow
	// CacheStats holds the shared cache's activity counters for this
	// session (each session runs on a fresh cache, so the counters are
	// per-encryption; PlatformChannel accumulates them across sessions).
	CacheStats cache.Stats
}

// windowsCovering returns the union of the line sets of all windows
// whose round span includes round r (an attacker that knows its timing
// selects exactly these probes).
func windowsCovering(ws []ProbeWindow, r int) probe.LineSet {
	var set probe.LineSet
	hit := false
	for _, w := range ws {
		if w.FirstRound <= r && r <= w.LastRound {
			set = set.Union(w.Set)
			hit = true
		}
	}
	if !hit {
		for _, w := range ws {
			set = set.Union(w.Set)
		}
	}
	return set
}
