package core

// GIFT-128 extension of the GRINCH attack. The paper demonstrates the
// attack on GIFT-64; GIFT-128 (the variant used by most GIFT-based NIST
// candidates) has the same structure with a different AddRoundKey
// geometry — key bits land on segment bits 1 (V) and 2 (U) instead of 0
// and 1, bit 0 is key-free, and each round consumes 64 key bits, so two
// attacked rounds cover the whole 128-bit key.
//
// A notable consequence of the shifted key positions: a 2-word cache
// line hides only index bit 0, which carries no key material in
// GIFT-128, so — unlike GIFT-64 — the attack loses nothing at 2-word
// lines (TestPairsForLine128Widths documents this).

import (
	"fmt"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/rng"
)

// TargetSpec128 pins one GIFT-128 S-box access, mirroring TargetSpec:
// its key bits land on index bits 1 (v) and 2 (u).
type TargetSpec128 struct {
	giftPinned
}

// NewTarget128 builds the target specification for round key t and
// segment g (0..31) of GIFT-128.
func NewTarget128(t, g int) TargetSpec128 {
	if t < 1 || t > gift.Rounds128 {
		panic(fmt.Sprintf("core: round %d out of range", t))
	}
	if g < 0 || g >= gift.Segments128 {
		panic(fmt.Sprintf("core: segment %d out of range", g))
	}
	return TargetSpec128{newGiftPinned(gift.InvPerm128[:], t, g, 1)}
}

// CraftState builds the round-Round S-box input state with the four
// source segments pinned and all others random.
func (t TargetSpec128) CraftState(r *rng.Source) bitutil.Word128 {
	var state bitutil.Word128
	var pinned uint32
	for _, src := range t.Sources {
		x := src.Inputs[r.Intn(len(src.Inputs))]
		state = state.SetNibble(uint(src.Segment), uint64(x))
		pinned |= 1 << src.Segment
	}
	for seg := uint(0); seg < gift.Segments128; seg++ {
		if pinned&(1<<seg) == 0 {
			state = state.SetNibble(seg, r.Nibble())
		}
	}
	return state
}

// CraftPlaintext draws a crafted state and inverts rounds Round-1..1 to
// turn it into a plaintext.
func (t TargetSpec128) CraftPlaintext(r *rng.Source, rks []gift.RoundKey128) bitutil.Word128 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, gift.PartialDecrypt128)
}
