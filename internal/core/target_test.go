package core

import (
	"fmt"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/present"
	"grinch/internal/rng"
)

func TestSourceBitMatchesTargetPosition(t *testing.T) {
	// GIFT's permutation preserves the bit position within a segment,
	// so the source feeding target index bit j must be S-box output bit
	// j of its segment. The attack's observability analysis depends on
	// this invariant.
	for round := 1; round <= 4; round++ {
		for g := 0; g < 16; g++ {
			spec := NewTarget64(round, g)
			for j, src := range spec.Sources {
				if src.Bit != j {
					t.Fatalf("round %d segment %d: source %d has bit %d", round, g, j, src.Bit)
				}
			}
		}
	}
}

func TestSourcesAreDistinctSegments(t *testing.T) {
	for g := 0; g < 16; g++ {
		spec := NewTarget64(1, g)
		seen := map[int]bool{}
		for _, src := range spec.Sources {
			if seen[src.Segment] {
				t.Fatalf("segment %d: duplicate source segment %d", g, src.Segment)
			}
			seen[src.Segment] = true
		}
	}
}

func TestEverySegmentFeedsEveryBitPositionOnce(t *testing.T) {
	// Across the 16 targets of one round, each source segment must
	// appear exactly once per bit position — the coverage property that
	// lets one round pass resolve all previous-round hypotheses.
	for j := 0; j < 4; j++ {
		seen := map[int]int{}
		for g := 0; g < 16; g++ {
			spec := NewTarget64(2, g)
			seen[spec.Sources[j].Segment]++
		}
		for seg := 0; seg < 16; seg++ {
			if seen[seg] != 1 {
				t.Fatalf("bit %d: segment %d feeds %d targets, want 1", j, seg, seen[seg])
			}
		}
	}
}

func TestSBoxBitListsHaveEightEntries(t *testing.T) {
	for j := 0; j < 4; j++ {
		list := sboxBitList(j)
		if len(list) != 8 {
			t.Fatalf("bit %d: %d valid inputs, want 8 (balanced S-box)", j, len(list))
		}
		for _, x := range list {
			if gift.SBox[x]>>j&1 != 1 {
				t.Fatalf("bit %d: input %#x does not set the bit", j, x)
			}
		}
	}
}

// TestCraftedStatePinsTargetIndex is the heart of Algorithm 1+2: for a
// crafted round-1 plaintext, the round-2 S-box index at the target
// segment must equal ExpectedIndex for the victim's actual key bits,
// for every target segment and many random keys.
func TestCraftedStatePinsTargetIndex(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		c := gift.NewCipher64FromWord(key)
		rk1 := c.RoundKeys()[0]
		for g := 0; g < 16; g++ {
			spec := NewTarget64(1, g)
			for rep := 0; rep < 5; rep++ {
				pt := spec.CraftPlaintext(r, nil)
				states := c.SBoxInputs(pt)
				got := uint8(bitutil.Nibble(states[1], uint(g)))
				v := uint8(rk1.V >> g & 1)
				u := uint8(rk1.U >> g & 1)
				if want := spec.ExpectedIndex(v, u); got != want {
					t.Fatalf("key trial %d segment %d: round-2 index %#x, want %#x", trial, g, got, want)
				}
			}
		}
	}
}

// TestCraftedStateLaterRounds checks the pinning for rounds 2..4 when
// the earlier round keys are known exactly.
func TestCraftedStateLaterRounds(t *testing.T) {
	r := rng.New(7)
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	c := gift.NewCipher64FromWord(key)
	rks := c.RoundKeys()
	for round := 2; round <= 4; round++ {
		rkT := rks[round-1]
		for g := 0; g < 16; g++ {
			spec := NewTarget64(round, g)
			for rep := 0; rep < 3; rep++ {
				pt := spec.CraftPlaintext(r, rks[:round-1])
				states := c.SBoxInputs(pt)
				got := uint8(bitutil.Nibble(states[round], uint(g)))
				v := uint8(rkT.V >> g & 1)
				u := uint8(rkT.U >> g & 1)
				if want := spec.ExpectedIndex(v, u); got != want {
					t.Fatalf("round %d segment %d: index %#x, want %#x", round, g, got, want)
				}
			}
		}
	}
}

func TestKeyBitsRoundTrip(t *testing.T) {
	for round := 1; round <= 5; round++ {
		for g := 0; g < 16; g++ {
			spec := NewTarget64(round, g)
			for p := uint8(0); p < 4; p++ {
				v, u := p&1, p>>1
				gotV, gotU := spec.KeyBits(spec.ExpectedIndex(v, u))
				if gotV != v || gotU != u {
					t.Fatalf("round %d seg %d pair %d: KeyBits=(%d,%d)", round, g, p, gotV, gotU)
				}
			}
		}
	}
}

func TestPairsForLine(t *testing.T) {
	spec := NewTarget64(1, 3)
	// Line width 1: every pair maps to its own index/line.
	for p := uint8(0); p < 4; p++ {
		line := int(spec.ExpectedIndex(p&1, p>>1))
		pairs := spec.CandidatesForLine(line, 1)
		if len(pairs) != 1 || pairs[0] != p {
			t.Fatalf("width 1 pair %d: pairs=%v", p, pairs)
		}
	}
	// Width 2 hides bit 0: two pairs per line.
	line := int(spec.ExpectedIndex(0, 0)) / 2
	if got := spec.CandidatesForLine(line, 2); len(got) != 2 {
		t.Fatalf("width 2: %d pairs, want 2", len(got))
	}
	// Width 4 hides bits 0-1: all four pairs share the line.
	line = int(spec.ExpectedIndex(0, 0)) / 4
	if got := spec.CandidatesForLine(line, 4); len(got) != 4 {
		t.Fatalf("width 4: %d pairs, want 4", len(got))
	}
}

func TestConstXorMatchesSpread(t *testing.T) {
	// Cross-check ConstXor against the real AddRoundKey: encrypt with a
	// zero round key and observe the constant's effect.
	for round := 1; round <= 6; round++ {
		rk := gift.RoundKey64{Const: gift.RoundConstants[round-1]}
		state := gift.AddRoundKey64(0, rk)
		for g := 0; g < 16; g++ {
			spec := NewTarget64(round, g)
			nib := uint8(bitutil.Nibble(state, uint(g)))
			if nib != spec.ConstXor {
				t.Fatalf("round %d segment %d: spread nibble %#x, ConstXor %#x", round, g, nib, spec.ConstXor)
			}
		}
	}
}

func TestNewTarget64PanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTarget64(0, 0) },
		func() { NewTarget64(29, 0) },
		func() { NewTarget64(1, -1) },
		func() { NewTarget64(1, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCraftPlaintextRandomizesOtherSegments(t *testing.T) {
	r := rng.New(9)
	spec := NewTarget64(1, 0)
	pinned := map[int]bool{}
	for _, src := range spec.Sources {
		pinned[src.Segment] = true
	}
	// Any non-source segment should take many distinct values across
	// crafts.
	values := map[uint64]bool{}
	var freeSeg uint = 0
	for seg := uint(0); seg < 16; seg++ {
		if !pinned[int(seg)] {
			freeSeg = seg
			break
		}
	}
	for i := 0; i < 200; i++ {
		pt := spec.CraftPlaintext(r, nil)
		values[bitutil.Nibble(pt, freeSeg)] = true
	}
	if len(values) < 12 {
		t.Fatalf("free segment took only %d distinct values in 200 crafts", len(values))
	}
}

// TestCraftFastMatchesGeneral pins the compiled crafting plans of
// GIFT-64 and GIFT-128 against the general loop they replace: for every
// (round, segment) and several seeds, the crafted state must be the
// general loop's state and the rng must end at the same position — the
// batch pipeline's rewind and every golden depend on the draw order.
func TestCraftFastMatchesGeneral(t *testing.T) {
	check := func(cipher string, round, g int, p *giftPinned, segments uint, fast func(*rng.Source) bitutil.Word128) {
		t.Helper()
		if !p.plan.fast {
			t.Fatalf("%s round %d segment %d: no compiled plan", cipher, round, g)
		}
		for _, seed := range []uint64{1, 2, 0xdeadbeef, 1 << 63} {
			rf, rg := rng.New(seed), rng.New(seed)
			for i := 0; i < 4; i++ {
				if got, want := fast(rf), p.craftStateGeneral(rg, segments); got != want {
					t.Fatalf("%s round %d segment %d seed %d craft %d: fast %x, general %x", cipher, round, g, seed, i, got, want)
				}
			}
			if *rf != *rg {
				t.Fatalf("%s round %d segment %d seed %d: rng positions diverged", cipher, round, g, seed)
			}
		}
	}
	for round := 1; round <= gift.Rounds64; round++ {
		for g := 0; g < gift.Segments64; g++ {
			spec := target64(round, g)
			check("GIFT-64", round, g, &spec.giftPinned, gift.Segments64, func(r *rng.Source) bitutil.Word128 {
				return bitutil.Word128{Lo: spec.CraftState(r)}
			})
		}
	}
	for round := 1; round <= gift.Rounds128; round++ {
		for g := 0; g < gift.Segments128; g++ {
			spec := target128(round, g)
			check("GIFT-128", round, g, &spec.giftPinned, gift.Segments128, spec.CraftState)
		}
	}
}

// BenchmarkCraftPlaintext measures one crafted plaintext per cipher, as
// the engine draws it through its target interface, for a round-1
// target (crafting only) and a round-2 target (crafting plus a
// one-round partial decryption), and requires the craft to allocate
// nothing.
func BenchmarkCraftPlaintext(b *testing.B) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	rks64 := gift.NewCipher64FromWord(key).RoundKeys()
	rks128 := gift.NewCipher128FromWord(key).RoundKeys()
	rksP := present.NewCipher80([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).RoundKeys()
	for _, round := range []int{1, 2} {
		t64, t128, tP := gift64.target(round, 5), gift128.target(round, 5), present80.target(round, 5)
		for _, c := range []struct {
			name  string
			craft func(r *rng.Source)
		}{
			{"GIFT-64", func(r *rng.Source) { sink64 ^= t64.craft(r, rks64) }},
			{"GIFT-128", func(r *rng.Source) { sink64 ^= t128.craft(r, rks128).Lo }},
			{"PRESENT-80", func(r *rng.Source) { sink64 ^= tP.craft(r, rksP) }},
		} {
			b.Run(fmt.Sprintf("%s/round=%d", c.name, round), func(b *testing.B) {
				r := rng.New(1)
				if allocs := testing.AllocsPerRun(100, func() { c.craft(r) }); allocs != 0 {
					b.Fatalf("%.1f allocs per craft, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.craft(r)
				}
			})
		}
	}
}

// sink64 keeps benchmark results live.
var sink64 uint64
