// Package victim models the trusted process of the GRINCH threat model:
// a task that encrypts attacker-supplied plaintexts with the table-based
// GIFT-64 implementation, issuing every S-box lookup as a memory access
// into the platform's shared cache and consuming CPU cycles per round.
//
// The cycle budget per round is a calibration constant taken from the
// paper's own measurement ("the time between different rounds was about
// 1.2 milliseconds" at 50 MHz, §IV-B3 — i.e. ≈60k cycles per software
// round on the RISCY core); see DefaultTiming.
package victim

import (
	"grinch/internal/gift"
	"grinch/internal/probe"
)

// Executor abstracts how the victim's work is charged to a platform: an
// RTOS task on the single-processor SoC, a dedicated core behind a NoC
// on the MPSoC. A call records the work; the platform charges its
// virtual time before the encryption's next step.
type Executor interface {
	// Exec consumes CPU cycles (possibly spanning preemptions).
	Exec(cycles uint64)
	// Access performs one memory read over the full access path (bus or
	// NoC plus cache).
	Access(addr uint64)
}

// Timing is the victim's per-round cycle budget.
type Timing struct {
	// ComputeCyclesPerRound is the non-memory work of one GIFT round
	// (permutation bit loops, key add, loop overhead on an IoT-class
	// core).
	ComputeCyclesPerRound uint64
	// LookupOverheadCycles is the address-computation overhead charged
	// before each of the 16 S-box lookups.
	LookupOverheadCycles uint64
}

// DefaultTiming is calibrated so one round takes ≈65.5k cycles, matching
// the paper's measured ≈1.2 ms per round at 50 MHz. With the paper's
// 10 ms RTOS quantum this reproduces Table II's single-SoC row:
// 100k/250k/500k quantum cycles at 10/25/50 MHz land the first probe in
// rounds 2/4/8.
func DefaultTiming() Timing {
	return Timing{
		ComputeCyclesPerRound: 65_000,
		LookupOverheadCycles:  20,
	}
}

// Victim is a GIFT-64 encryption service with progress tracking.
type Victim struct {
	rks    []gift.RoundKey64 //grinch:secret
	table  probe.TableLayout
	timing Timing

	encryptions uint64
	round       int
}

// New builds a victim that encrypts under rks, the expanded round keys
// of the key the attacker is after; it keeps rks without copying them.
// table locates the S-box lookup table in the shared memory map.
//
//grinch:secret rks
func New(rks []gift.RoundKey64, table probe.TableLayout, timing Timing) *Victim {
	return &Victim{rks: rks, table: table, timing: timing}
}

// Encryptions returns how many encryptions have completed.
func (v *Victim) Encryptions() uint64 { return v.encryptions }

// CurrentRound returns the round currently executing (1..28), or 0 when
// idle. The attacker-side experiment code reads this to label probe
// windows; a real attacker recovers the same information from timing.
func (v *Victim) CurrentRound() int { return v.round }

// Encryption is one encryption in progress on a victim, advanced one
// executor call at a time by Step, so that a platform charges each
// call's virtual time before the next one is issued.
type Encryption struct {
	v     *Victim
	state uint64
	sub   uint64
	// round is the round in progress (1..28), seg its next S-box lookup:
	// 16 issues the round's compute and 17 means it has been issued.
	// looked reports that seg's address-computation overhead has been
	// issued, so its access comes next.
	round  int
	seg    uint
	looked bool
}

// Start begins encrypting pt.
func (v *Victim) Start(pt uint64) Encryption {
	return Encryption{v: v, state: pt}
}

// Step issues the encryption's next executor call: for every round, 16
// S-box lookups hit the table through the platform's memory path, each
// after its address-computation overhead, then the round's compute
// budget is consumed. The step after the last round's compute issues
// nothing and reports done with the ciphertext.
func (e *Encryption) Step(ex Executor) (ct uint64, done bool) {
	v := e.v
	if e.seg > gift.Segments64 {
		e.state = gift.AddRoundKey64(gift.PermBits64(e.sub), v.rks[e.round-1])
		if e.round == gift.Rounds64 {
			v.round = 0
			v.encryptions++
			return e.state, true
		}
		e.sub, e.seg = 0, 0
	}
	if e.seg == 0 && !e.looked {
		e.round++
		v.round = e.round
	}
	switch {
	case e.seg == gift.Segments64:
		ex.Exec(v.timing.ComputeCyclesPerRound)
	case !e.looked && v.timing.LookupOverheadCycles > 0:
		e.looked = true
		ex.Exec(v.timing.LookupOverheadCycles)
		return 0, false
	default:
		idx := int(e.state >> (4 * e.seg) & 0xf)
		ex.Access(v.table.EntryAddr(idx))
		e.sub |= uint64(gift.SBox[idx]) << (4 * e.seg)
		e.looked = false
	}
	e.seg++
	return 0, false
}

// RoundCycles returns the approximate CPU cycles one round consumes,
// excluding cache miss penalties (used by experiment sizing).
func (v *Victim) RoundCycles() uint64 {
	return v.timing.ComputeCyclesPerRound + 16*v.timing.LookupOverheadCycles
}
