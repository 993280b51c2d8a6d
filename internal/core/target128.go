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

// target128Specs caches every (round, segment) specification, as
// target64Specs does for GIFT-64.
var target128Specs = buildTarget128Specs()

func buildTarget128Specs() *[gift.Rounds128][gift.Segments128]TargetSpec128 {
	specs := new([gift.Rounds128][gift.Segments128]TargetSpec128)
	for t := 1; t <= gift.Rounds128; t++ {
		for g := 0; g < gift.Segments128; g++ {
			specs[t-1][g] = TargetSpec128{newGiftPinned(gift.InvPerm128[:], t, g, 1)}
		}
	}
	return specs
}

// target128 returns the cached specification itself; the engine's
// targets point into the cache instead of copying it.
func target128(t, g int) *TargetSpec128 {
	if t < 1 || t > gift.Rounds128 {
		panic(fmt.Sprintf("core: round %d out of range", t))
	}
	if g < 0 || g >= gift.Segments128 {
		panic(fmt.Sprintf("core: segment %d out of range", g))
	}
	return &target128Specs[t-1][g]
}

// CraftState builds the round-Round S-box input state with the four
// source segments pinned and all others random. Like TargetSpec's, the
// fast path draws exactly what the general loop draws, in the same
// order: IntnPow2(3) is Intn(8), and the 28 free nibbles, drawn packed
// 16 low and 12 high, spread by openGap; a low-word gap carries the low
// word's top nibble into the high word.
func (t *TargetSpec128) CraftState(r *rng.Source) bitutil.Word128 {
	p := &t.plan
	if !p.fast {
		return t.craftStateGeneral(r, gift.Segments128)
	}
	st := *r
	var src bitutil.Word128
	for i := 0; i < 4; i++ {
		x := uint64(p.inputs[i] >> (4 * uint(st.IntnPow2(3))) & 0xf)
		if s := p.srcShift[i]; s < 64 {
			src.Lo |= x << s
		} else {
			src.Hi |= x << (s - 64)
		}
	}
	lo := st.Nibble() | st.Nibble()<<4 | st.Nibble()<<8 | st.Nibble()<<12 |
		st.Nibble()<<16 | st.Nibble()<<20 | st.Nibble()<<24 | st.Nibble()<<28 |
		st.Nibble()<<32 | st.Nibble()<<36 | st.Nibble()<<40 | st.Nibble()<<44 |
		st.Nibble()<<48 | st.Nibble()<<52 | st.Nibble()<<56 | st.Nibble()<<60
	hi := st.Nibble() | st.Nibble()<<4 | st.Nibble()<<8 | st.Nibble()<<12 |
		st.Nibble()<<16 | st.Nibble()<<20 | st.Nibble()<<24 | st.Nibble()<<28 |
		st.Nibble()<<32 | st.Nibble()<<36 | st.Nibble()<<40 | st.Nibble()<<44
	for _, g := range p.gaps {
		if g < 64 {
			hi = hi<<4 | lo>>60
			lo = openGap(lo, g)
		} else {
			hi = openGap(hi, g-64)
		}
	}
	*r = st
	return bitutil.Word128{Lo: src.Lo | lo, Hi: src.Hi | hi}
}

// craft turns a crafted state into its plaintext on the engine's
// pointer into the target cache (see TargetSpec.craft).
func (t *TargetSpec128) craft(r *rng.Source, rks []gift.RoundKey128) bitutil.Word128 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, gift.PartialDecrypt128)
}
