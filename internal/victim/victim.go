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
// on the MPSoC.
type Executor interface {
	// Exec consumes CPU cycles (possibly spanning preemptions).
	Exec(cycles uint64)
	// Access performs one memory read, advancing virtual time by the
	// full access path (bus or NoC plus cache) and returning the cycles
	// charged.
	Access(addr uint64) uint64
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
	cipher *gift.Cipher64 //grinch:secret
	table  probe.TableLayout
	timing Timing

	encryptions uint64
	round       int
}

// New builds a victim holding the cipher whose key the attacker is
// after. table locates the S-box lookup table in the shared memory map.
//
//grinch:secret cipher
func New(cipher *gift.Cipher64, table probe.TableLayout, timing Timing) *Victim {
	return &Victim{cipher: cipher, table: table, timing: timing}
}

// Encryptions returns how many encryptions have completed.
func (v *Victim) Encryptions() uint64 { return v.encryptions }

// CurrentRound returns the round currently executing (1..28), or 0 when
// idle. The attacker-side experiment code reads this to label probe
// windows; a real attacker recovers the same information from timing.
func (v *Victim) CurrentRound() int { return v.round }

// Encrypt runs one traced encryption on the executor: for every round,
// 16 S-box lookups hit the table through the platform's memory path,
// then the round's compute budget is consumed. Returns the ciphertext.
func (v *Victim) Encrypt(ex Executor, pt uint64) uint64 {
	rks := v.cipher.RoundKeys()
	s := pt
	for r := 0; r < gift.Rounds64; r++ {
		v.round = r + 1
		var sub uint64
		for seg := uint(0); seg < gift.Segments64; seg++ {
			idx := int(s >> (4 * seg) & 0xf)
			if v.timing.LookupOverheadCycles > 0 {
				ex.Exec(v.timing.LookupOverheadCycles)
			}
			ex.Access(v.table.EntryAddr(idx))
			sub |= uint64(gift.SBox[idx]) << (4 * seg)
		}
		ex.Exec(v.timing.ComputeCyclesPerRound)
		s = gift.AddRoundKey64(gift.PermBits64(sub), rks[r])
	}
	v.round = 0
	v.encryptions++
	return s
}

// RoundCycles returns the approximate CPU cycles one round consumes,
// excluding cache miss penalties (used by experiment sizing).
func (v *Victim) RoundCycles() uint64 {
	return v.timing.ComputeCyclesPerRound + 16*v.timing.LookupOverheadCycles
}
