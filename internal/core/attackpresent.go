package core

// GRINCH-P: the GRINCH methodology adapted to PRESENT, the cipher GIFT
// was designed to replace (paper §II). PRESENT XORs its round key into
// the whole state *before* SubCells, so a pinned S-box access leaks all
// four index bits as key bits — twice GIFT's yield per segment — and the
// crafting step is simpler (the target segment of the round input is set
// directly instead of through inverse-permuted source bits). Two
// attacked rounds expose K1 and K2, from which the 80-bit master key is
// reconstructed by inverting the key schedule (present.RecoverKey80).
//
// The comparison quantifies the paper's point from the other side:
// table-based PRESENT software is strictly easier prey for an
// access-driven attacker than GIFT, whose AddRoundKey touches only two
// bits per segment.

import (
	"fmt"

	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// TargetSpecP pins one PRESENT S-box access: segment Segment of the
// round-Round input state is fixed to 0xF, so the observed index is
// 0xF ⊕ K_Round[Segment].
type TargetSpecP struct {
	Round   int
	Segment int
}

// NewTargetP builds a PRESENT target.
func NewTargetP(t, g int) TargetSpecP {
	if t < 1 || t > present.Rounds {
		panic(fmt.Sprintf("core: round %d out of range", t))
	}
	if g < 0 || g >= present.Segments {
		panic(fmt.Sprintf("core: segment %d out of range", g))
	}
	return TargetSpecP{Round: t, Segment: g}
}

// ExpectedIndex returns the observed index for round-key nibble val.
func (t TargetSpecP) ExpectedIndex(val uint8) uint8 {
	return pinnedValue ^ val&0xf
}

// FeasibleLines returns the lines the pinned target can land on: all
// sixteen nibble values are possible keys, so every line is.
func (t TargetSpecP) FeasibleLines(lineWords int) probe.LineSet {
	return probe.FullSet(16 / lineWords)
}

// CandidatesForLine returns the candidate key nibbles consistent with an
// observed line under the given line width.
func (t TargetSpecP) CandidatesForLine(line, lineWords int) []uint8 {
	var out []uint8
	for v := uint8(0); v < 16; v++ {
		if int(t.ExpectedIndex(v))/lineWords == line {
			out = append(out, v)
		}
	}
	return out
}

// CraftState builds the round-Round input with the target segment
// pinned to 0xF and every other segment random.
func (t TargetSpecP) CraftState(r *rng.Source) uint64 {
	var state uint64
	for seg := uint(0); seg < present.Segments; seg++ {
		if int(seg) == t.Segment {
			state |= uint64(pinnedValue) << (4 * seg)
		} else {
			state |= r.Nibble() << (4 * seg)
		}
	}
	return state
}

// craft is the engine's name for CraftPlaintext (see target).
func (t TargetSpecP) craft(r *rng.Source, rks []uint64) uint64 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, present.PartialDecrypt)
}

// ParentSegments returns the round-(Round-1) S-boxes feeding the target
// segment's four input bits, indexed by target bit position: pinning
// s_t[g] through InvRound depends on those S-boxes' round-(Round-1) key
// nibbles.
func (t TargetSpecP) ParentSegments() [4]int {
	var out [4]int
	for j := 0; j < 4; j++ {
		out[j] = int(present.InvPerm[4*t.Segment+j]) / 4
	}
	return out
}

// worstPinShareP mirrors worstPinShare for the PRESENT S-box: the
// largest probability (over uniform x) that a wrong key hypothesis on a
// parent leaves one chosen output bit of S(x⊕e) equal to that of S(x).
var worstPinShareP = computeWorstPinShareP()

func computeWorstPinShareP() float64 {
	best := 0
	for o := 0; o < 4; o++ {
		for e := uint8(1); e < 16; e++ {
			same := 0
			for x := uint8(0); x < 16; x++ {
				if (present.SBox[x]^present.SBox[x^e])>>o&1 == 0 {
					same++
				}
			}
			if same > best && same < 16 {
				best = same
			}
		}
	}
	return float64(best) / 16
}

// present80 describes PRESENT-80 to the engine: 16 segments leaking a
// whole key nibble each, and round keys K1 and K2 from which the key
// schedule is inverted. It has no hypothesis passes (see RecoverKey80).
var present80 = cipherDesc[uint64, uint64]{
	name:      "PRESENT",
	segments:  present.Segments,
	keyRounds: 2,
	maxRound:  2,
	target:    func(t, g int) target[uint64, uint64] { return NewTargetP(t, g) },
	roundKey:  roundKeyFromNibbles,
	pinShare:  worstPinShareP,
}

// roundKeyFromNibbles assembles a 64-bit PRESENT round key from its
// per-segment nibbles.
func roundKeyFromNibbles(_ int, nibbles []uint8) uint64 {
	var rk uint64
	for g, v := range nibbles {
		rk |= uint64(v) << (4 * g)
	}
	return rk
}

// AttackerP drives GRINCH-P over a PRESENT channel. The signal round
// for round key t is round t itself (key-first ordering), so the
// channel's Collect window starts at targetRound rather than
// targetRound+1.
type AttackerP struct {
	engine[uint64, uint64]
}

// NewAttackerP builds a PRESENT attacker.
func NewAttackerP(ch probe.Channel, cfg Config) (*AttackerP, error) {
	a := new(AttackerP)
	if err := a.init(&present80, ch, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// KeyResultP is a completed PRESENT-80 key recovery.
type KeyResultP struct {
	Key            [10]byte
	RoundKeys      [2]uint64
	Encryptions    uint64
	RoundsAttacked int
}

// RecoverKey80 runs GRINCH-P to completion: rounds 1 and 2 expose 64
// round-key bits each, and present.RecoverKey80 inverts the key
// schedule.
//
// Wide cache lines are rejected: PRESENT's permutation routes output
// bit (p mod 4) of every S-box p into position (p mod 4) of its
// children, and the PRESENT S-box has a deterministic derivative on
// that axis — S(x)⊕S(x⊕1) always has bit 0 set — so a wrong hidden-bit
// hypothesis at a bit-0-fed target flips the pinned value *constantly*
// instead of randomizing it, and next-round elimination converges to a
// self-consistent wrong answer. Disambiguation would need round-(t+2)
// cone analysis; rather than risk a silently wrong key, the attack
// declines (an interesting structural contrast with GIFT, whose
// position-preserving permutation avoids the trap — see
// TestPresentWideLineDeterministicDerivative).
func (a *AttackerP) RecoverKey80() (KeyResultP, error) {
	if a.lineWords > 1 {
		return KeyResultP{}, fmt.Errorf("core: GRINCH-P full recovery needs 1-word cache lines (got %d-word): PRESENT's deterministic S-box derivative defeats next-round disambiguation", a.lineWords)
	}
	r := a.recoverKey()
	if r.err != nil {
		return KeyResultP{}, r.err
	}
	res := KeyResultP{Encryptions: r.encryptions, RoundsAttacked: r.passes}
	copy(res.RoundKeys[:], r.rks)
	res.Key = present.RecoverKey80(res.RoundKeys[0], res.RoundKeys[1])
	return res, nil
}
