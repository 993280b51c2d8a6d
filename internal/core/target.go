// Package core implements the GRINCH attack (paper §III): an
// access-driven cache attack that recovers the full 128-bit GIFT key by
// crafting plaintexts that pin one S-box index per round and segment,
// eliminating candidate indices from observed cache line sets, and
// reverse-engineering the key bits from the surviving index.
//
// The attack follows the paper's five-step methodology:
//
//  1. Generate plaintext + encrypt (Algorithms 1 and 2) — target.go
//  2. Probe the cache — delegated to a probe.Channel
//  3. Eliminate candidates — eliminate.go
//  4. Reverse-engineer key bits — TargetSpec.KeyBits
//  5. Update plaintext generation for the next round — attack.go
//
// One generic engine (attack.go) runs these steps for every cipher; a
// small per-cipher description supplies the targets, round-key
// assembly and recovery shape for GIFT-64, GIFT-128 (attack128.go) and
// PRESENT-80 (attackpresent.go).
//
// Wide cache lines hide the low index bits (paper §III-D); the attack
// then carries up to four candidate key-bit pairs per segment into the
// next round, where wrong hypotheses destroy the pinning and are pruned
// (attack.go).
package core

import (
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

// Source describes one of the four S-box outputs of round t that feed
// the attacked segment of round t+1 (the output of paper Algorithm 1 for
// one bit).
type Source struct {
	// Segment is the segment of the round-t S-box input state that
	// produces this bit.
	Segment int
	// Bit is the output bit (0..3) of that segment's S-box that the
	// permutation routes into the target; GIFT's permutation preserves
	// the bit position within a segment, so Bit equals the target bit
	// position this source feeds.
	Bit int
	// Inputs lists the S-box inputs x for which SBox[x] has Bit set —
	// the paper's list_A/list_B of valid crafted values (8 entries).
	Inputs []uint8
}

// TargetSpec pins one S-box access: the four input bits of segment
// Segment at the input of round Round+1's SubCells are forced to 1
// before the round-Round AddRoundKey, so the observed index differs from
// 0b1111 exactly by the two round-key bits and the known round constant.
type TargetSpec struct {
	giftPinned
}

// sboxBitList returns the S-box inputs whose output has bit j set
// (paper Algorithm 1 lines 6-13, expressed directly instead of through
// Inv_SBOX).
func sboxBitList(j int) []uint8 {
	var list []uint8
	for x := uint8(0); x < 16; x++ {
		if gift.SBox[x]>>j&1 == 1 {
			list = append(list, x)
		}
	}
	return list
}

// sboxBitLists holds sboxBitList(j) for each output bit j. Every
// target's Sources share these four lists — consumers only read them.
var sboxBitLists = [4][]uint8{sboxBitList(0), sboxBitList(1), sboxBitList(2), sboxBitList(3)}

// target64Specs caches every (round, segment) specification: the specs
// are pure functions of the cipher's constants, and campaign sweeps
// request them hundreds of thousands of times.
var target64Specs = buildTarget64Specs()

func buildTarget64Specs() [gift.Rounds64][gift.Segments64]TargetSpec {
	var specs [gift.Rounds64][gift.Segments64]TargetSpec
	for t := 1; t <= gift.Rounds64; t++ {
		for g := 0; g < gift.Segments64; g++ {
			specs[t-1][g] = TargetSpec{newGiftPinned(gift.InvPerm64[:], t, g, 0)}
		}
	}
	return specs
}

// NewTarget64 returns the target specification for round key t
// (1-based) and segment g of GIFT-64.
func NewTarget64(t, g int) TargetSpec { return *target64(t, g) }

// target64 returns the cached specification itself; the engine's
// targets point into the cache instead of copying it.
func target64(t, g int) *TargetSpec {
	if t < 1 || t > gift.Rounds64 {
		panic(fmt.Sprintf("core: round %d out of range", t))
	}
	if g < 0 || g >= gift.Segments64 {
		panic(fmt.Sprintf("core: segment %d out of range", g))
	}
	return &target64Specs[t-1][g]
}

// giftPinned is what the GIFT-64 and GIFT-128 targets share: the
// variants differ only in state width, permutation and where
// AddRoundKey puts the two key bits of a segment.
type giftPinned struct {
	// Round is the attacked round key (1-based): the crafted constraint
	// acts on the S-box accesses of round Round+1.
	Round int
	// Segment is the attacked segment g: key bits V_g and U_g of round
	// key Round are recovered.
	Segment int
	// Sources are the four round-Round S-box cells feeding the target,
	// indexed by target bit position (Sources[j] feeds index bit j).
	Sources [4]Source
	// ConstXor is the round-constant contribution to the observed
	// index (bit 3 only; bits 0..2 never carry constants in GIFT).
	ConstXor uint8
	// keyShift is the index bit V lands on, U landing one above: 0 for
	// GIFT-64, 1 for GIFT-128.
	keyShift uint8
	// plan is the compiled crafting fast path (zero, and so unused, for
	// hand-built targets).
	plan craftPlan
}

// newGiftPinned locates the pinning for segment g of round key t of a
// GIFT variant with inverse bit permutation invPerm (paper Algorithm
// 1, SET_TARGET_BITS): the state positions that AddRoundKey XORs with
// the target key bits are inverse-permuted to locate the S-box output
// bits that must be pinned.
func newGiftPinned(invPerm []uint8, t, g int, keyShift uint8) giftPinned {
	p := giftPinned{Round: t, Segment: g, keyShift: keyShift}
	for j := 0; j < 4; j++ {
		// State bit 4g+j of the round-(t+1) S-box input comes from
		// S-box output bit invPerm[4g+j] of round t.
		src := int(invPerm[4*g+j])
		p.Sources[j] = Source{
			Segment: src / 4,
			Bit:     src % 4,
			Inputs:  sboxBitLists[src%4],
		}
	}
	// Round-constant contribution to the observed index: GIFT XORs a
	// fixed 1 into the state's top bit (bit 3 of the last segment: 15
	// for GIFT-64, 31 for GIFT-128) and constant bits c_i into bits
	// 4i+3 for i = 0..5 (segments 0..5, bit 3).
	c := gift.RoundConstants[t-1]
	switch {
	case g == len(invPerm)/4-1:
		p.ConstXor = 1 << 3
	case g < 6:
		p.ConstXor = (c >> g & 1) << 3
	}
	p.plan = compileCraft(&p.Sources)
	return p
}

// craftPlan is a GIFT target's crafting fast path, compiled once per
// (round, segment) so the per-plaintext hot loop is free of slice
// chases and pin-tracking branches. inputs[i] packs Sources[i].Inputs
// as eight nibbles; srcShift[i] is 4*Sources[i].Segment; gaps holds
// 4*seg of the four pinned segments, ascending, for openGap. fast is
// false when the plan does not apply.
type craftPlan struct {
	fast     bool
	srcShift [4]uint8
	inputs   [4]uint32
	gaps     [4]uint8
}

// compileCraft compiles the crafting plan of a target with the given
// sources. It only succeeds when every source list has exactly 8
// entries (every balanced S-box output bit does) and the four sources
// pin four distinct segments (GIFT's permutation guarantees it);
// otherwise fast stays false and CraftState takes the general loop.
func compileCraft(sources *[4]Source) craftPlan {
	var p craftPlan
	var pinned uint32
	for i := range sources {
		src := &sources[i]
		if len(src.Inputs) != 8 {
			return craftPlan{}
		}
		for k, x := range src.Inputs {
			p.inputs[i] |= uint32(x) << (4 * k)
		}
		p.srcShift[i] = uint8(4 * src.Segment)
		pinned |= 1 << src.Segment
	}
	if bits.OnesCount32(pinned) != 4 {
		return craftPlan{}
	}
	for n := range p.gaps {
		p.gaps[n] = uint8(4 * bits.TrailingZeros32(pinned))
		pinned &= pinned - 1
	}
	p.fast = true
	return p
}

// openGap shifts the nibbles of x at and above bit g up one nibble,
// leaving a zero nibble at g; opening the pinned segments' gaps in
// ascending order spreads packed draws onto the unpinned segments.
func openGap(x uint64, g uint8) uint64 {
	low := x & (1<<(g&63) - 1)
	return low | (x^low)<<4
}

// pinnedValue is the value the four pinned bits take before AddRoundKey
// (the paper sets both target bits to 1; we pin all four source bits so
// exactly one index is activated).
const pinnedValue = 0xf

// ExpectedIndex returns the S-box index that will be observed in round
// Round+1, segment Segment, when round key Round has V bit v and U bit u
// at this segment. GIFT-64 XORs v into index bit 0 and u into bit 1,
// GIFT-128 into bits 1 and 2.
func (t *giftPinned) ExpectedIndex(v, u uint8) uint8 {
	return pinnedValue ^ t.ConstXor ^ (v&1|u&1<<1)<<t.keyShift
}

// KeyBits reverse-engineers the two key bits from the observed index
// (paper Step 4: Key[i] ← ¬Index[a], adjusted for the round constant).
// v is the bit of the round key's V word at this segment, u the bit of
// U.
//
//grinchvet:ignore deadexport step 4 of the README walkthrough and of the package Example
func (t *giftPinned) KeyBits(index uint8) (v, u uint8) {
	d := (index ^ pinnedValue ^ t.ConstXor) >> t.keyShift
	return d & 1, d >> 1 & 1
}

// FeasibleLines returns the table lines the pinned target can land on:
// the four possible key-bit pairs map to at most four indices, which a
// wide line collapses further. A converged line outside this set cannot
// be the target — it is a noise line that survived by chance.
func (t *giftPinned) FeasibleLines(lineWords int) probe.LineSet {
	var set probe.LineSet
	for p := uint8(0); p < 4; p++ {
		set = set.Add(int(t.ExpectedIndex(p&1, p>>1)) / lineWords)
	}
	return set
}

// CandidatesForLine returns the candidate (v | u<<1) key-bit pairs
// consistent with the observed table line when lineWords table entries
// share one cache line: wide lines hide the low index bits, leaving up
// to four candidates (paper §III-D).
func (t *giftPinned) CandidatesForLine(line, lineWords int) []uint8 {
	var pairs []uint8
	for p := uint8(0); p < 4; p++ {
		if int(t.ExpectedIndex(p&1, p>>1))/lineWords == line {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// CraftState builds the round-Round S-box input state (paper Algorithm
// 2, GENERATE): each source segment gets a value drawn from its valid
// list so the pinned output bit is 1; every other segment is random.
func (t *TargetSpec) CraftState(r *rng.Source) uint64 {
	p := &t.plan
	if !p.fast {
		return t.craftStateGeneral(r, gift.Segments64).Lo
	}
	// Fast path over the compiled metadata: IntnPow2(3) is Intn(8) —
	// same draw, same value, small enough to inline — indexing a packed
	// nibble list; the twelve free nibbles are drawn in order (Go calls
	// left to right) with constant shifts and spread by openGap. With no
	// call left in the body, the local generator copy stays
	// register-resident across all 16 draws of the craft.
	st := *r
	var state uint64
	for i := 0; i < 4; i++ {
		x := p.inputs[i] >> (4 * uint(st.IntnPow2(3))) & 0xf
		state |= uint64(x) << p.srcShift[i]
	}
	free := st.Nibble() | st.Nibble()<<4 | st.Nibble()<<8 | st.Nibble()<<12 |
		st.Nibble()<<16 | st.Nibble()<<20 | st.Nibble()<<24 | st.Nibble()<<28 |
		st.Nibble()<<32 | st.Nibble()<<36 | st.Nibble()<<40 | st.Nibble()<<44
	for _, g := range p.gaps {
		free = openGap(free, g)
	}
	*r = st
	return state | free
}

// craftStateGeneral is the reference crafting loop over a state of
// segments segments, for source lists of any length: each source draws
// Intn(len(Inputs)) in source order, then every other segment draws a
// nibble in ascending order. Compiled plans reproduce it draw for draw;
// targets built by NewTarget64 and target128 never take it (the GIFT
// S-box is balanced), but CraftState's contract does not require
// 8-entry lists.
func (t *giftPinned) craftStateGeneral(r *rng.Source, segments uint) bitutil.Word128 {
	var state bitutil.Word128
	var pinned uint32
	for i := range t.Sources {
		src := &t.Sources[i]
		x := src.Inputs[r.Intn(len(src.Inputs))]
		state = state.SetNibble(uint(src.Segment), uint64(x))
		pinned |= 1 << src.Segment
	}
	for seg := uint(0); seg < segments; seg++ {
		if pinned&(1<<seg) == 0 {
			state = state.SetNibble(seg, r.Nibble())
		}
	}
	return state
}

// craft draws a crafted round-Round state and turns it into the
// plaintext that produces it (see craftPlaintext). Its pointer receiver
// into the target cache spares the per-observation struct copy of a
// value receiver called through an interface.
func (t *TargetSpec) craft(r *rng.Source, rks []gift.RoundKey64) uint64 {
	return craftPlaintext(t.CraftState(r), t.Round, rks, gift.PartialDecrypt64)
}

// craftPlaintext turns a crafted round-t state into the plaintext that
// produces it, by inverting rounds t-1..1 with the (known or
// hypothesized) earlier round keys. For t == 1 the state is the
// plaintext (paper Step 5 reduces to Step 1).
func craftPlaintext[W, RK any](state W, t int, rks []RK, partialDecrypt func(W, []RK, int) W) W {
	if t == 1 {
		return state
	}
	if len(rks) < t-1 {
		panic(fmt.Sprintf("core: crafting round %d needs %d round keys, have %d",
			t, t-1, len(rks)))
	}
	return partialDecrypt(state, rks, t-1)
}

// ParentSegments returns the four round-(Round-1)-key segments whose key
// bits determine whether the crafted state is realized, indexed by the
// target bit position they influence. (For Round == 1 the sources are
// plaintext segments and no key is involved.)
func (t *giftPinned) ParentSegments() [4]int {
	var out [4]int
	for j, src := range t.Sources {
		out[j] = src.Segment
	}
	return out
}
