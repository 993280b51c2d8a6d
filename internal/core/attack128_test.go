package core

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/oracle"
	"grinch/internal/rng"
)

func cleanChannel128(t *testing.T, key bitutil.Word128, lineWords int) *oracle.Oracle128 {
	t.Helper()
	ch, err := oracle.New128(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: lineWords})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func newAttacker128(t *testing.T, ch Channel128, cfg Config) *Attacker128 {
	t.Helper()
	a, err := NewAttacker128(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTarget128SourceBitInvariant(t *testing.T) {
	for _, round := range []int{1, 2, 3} {
		for g := 0; g < 32; g++ {
			spec := NewTarget128(round, g)
			for j, src := range spec.Sources {
				if src.Bit != j {
					t.Fatalf("round %d segment %d: source %d has bit %d", round, g, j, src.Bit)
				}
			}
			seen := map[int]bool{}
			for _, src := range spec.Sources {
				if seen[src.Segment] {
					t.Fatalf("segment %d: duplicate source", g)
				}
				seen[src.Segment] = true
			}
		}
	}
}

func TestTarget128CoverageAcrossSegments(t *testing.T) {
	for j := 0; j < 4; j++ {
		seen := map[int]int{}
		for g := 0; g < 32; g++ {
			seen[NewTarget128(2, g).Sources[j].Segment]++
		}
		for seg := 0; seg < 32; seg++ {
			if seen[seg] != 1 {
				t.Fatalf("bit %d: segment %d feeds %d targets", j, seg, seen[seg])
			}
		}
	}
}

func TestCraftedStatePins128(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 5; trial++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		c := gift.NewCipher128FromWord(key)
		rks := c.RoundKeys()
		for round := 1; round <= 3; round++ {
			for g := 0; g < 32; g += 5 {
				spec := NewTarget128(round, g)
				pt := spec.CraftPlaintext(r, rks[:round-1])
				states := c.SBoxInputs(pt)
				got := uint8(states[round].Nibble(uint(g)))
				v := uint8(rks[round-1].V >> g & 1)
				u := uint8(rks[round-1].U >> g & 1)
				if want := spec.ExpectedIndex(v, u); got != want {
					t.Fatalf("trial %d round %d segment %d: index %#x, want %#x", trial, round, g, got, want)
				}
			}
		}
	}
}

func TestKeyBits128RoundTrip(t *testing.T) {
	for _, g := range []int{0, 5, 6, 30, 31} {
		spec := NewTarget128(1, g)
		for p := uint8(0); p < 4; p++ {
			v, u := p&1, p>>1
			gv, gu := spec.KeyBits(spec.ExpectedIndex(v, u))
			if gv != v || gu != u {
				t.Fatalf("segment %d pair %d: got (%d,%d)", g, p, gv, gu)
			}
		}
	}
}

func TestConstXor128MatchesSpread(t *testing.T) {
	for round := 1; round <= 6; round++ {
		rk := gift.RoundKey128{Const: gift.RoundConstants[round-1]}
		state := gift.AddRoundKey128(bitutil.Word128{}, rk)
		for g := 0; g < 32; g++ {
			spec := NewTarget128(round, g)
			if nib := uint8(state.Nibble(uint(g))); nib != spec.ConstXor {
				t.Fatalf("round %d segment %d: spread %#x, ConstXor %#x", round, g, nib, spec.ConstXor)
			}
		}
	}
}

// TestPairsForLine128Widths documents the GIFT-128 asymmetry: a 2-word
// line hides only index bit 0, which carries no key material, so the
// key pair stays unique; a 4-word line hides v; an 8-word line hides
// both bits.
func TestPairsForLine128Widths(t *testing.T) {
	spec := NewTarget128(1, 3)
	for _, c := range []struct{ words, pairs int }{{1, 1}, {2, 1}, {4, 2}, {8, 4}} {
		line := int(spec.ExpectedIndex(0, 0)) / c.words
		if got := len(spec.CandidatesForLine(line, c.words)); got != c.pairs {
			t.Fatalf("width %d: %d pairs, want %d", c.words, got, c.pairs)
		}
	}
}

func TestRecoverKey128Ideal(t *testing.T) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	ch := cleanChannel128(t, key, 1)
	a := newAttacker128(t, ch, Config{Seed: 1})
	res, err := a.RecoverKey128()
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != key {
		t.Fatalf("recovered %016x%016x, want %016x%016x", res.Key.Hi, res.Key.Lo, key.Hi, key.Lo)
	}
	if res.RoundsAttacked != 2 {
		t.Fatalf("attacked %d rounds, want 2 (GIFT-128 uses 64 key bits per round)", res.RoundsAttacked)
	}
	t.Logf("GIFT-128 full key: %d encryptions", res.Encryptions)
	// 32 segments × 2 rounds at ~7-12 encryptions per segment.
	if res.Encryptions > 1500 {
		t.Fatalf("recovery took %d encryptions", res.Encryptions)
	}
}

func TestRecoverKey128ManyKeys(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 5; trial++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		ch := cleanChannel128(t, key, 1)
		a := newAttacker128(t, ch, Config{Seed: uint64(trial) + 10})
		res, err := a.RecoverKey128()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Key != key {
			t.Fatalf("trial %d: wrong key", trial)
		}
	}
}

// TestRecoverKey128TwoWordLinesLossless: GIFT-128's key bits sit at
// index bits 1-2, so a 2-word line costs extra encryptions but no
// hypothesis pass.
func TestRecoverKey128TwoWordLinesLossless(t *testing.T) {
	key := bitutil.Word128{Lo: 0xaabbccddeeff0011, Hi: 0x2233445566778899}
	ch := cleanChannel128(t, key, 2)
	a := newAttacker128(t, ch, Config{Seed: 4})
	res, err := a.RecoverKey128()
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != key {
		t.Fatal("wrong key at 2-word lines")
	}
	if res.RoundsAttacked != 2 {
		t.Fatalf("2-word lines forced %d passes, want 2 (no ambiguity in GIFT-128)", res.RoundsAttacked)
	}
}

func TestRecoverKey128WideLinesImpractical(t *testing.T) {
	// GIFT-128's 32 segments touch essentially every line of a 4-line
	// (4-word) table in every encryption — the observation channel
	// saturates far harder than GIFT-64's (16 segments), making wide
	// lines a structural defence for GIFT-128. The attack must fail
	// cleanly under a budget rather than return a wrong key.
	key := bitutil.Word128{Lo: 0x5a5a5a5aa5a5a5a5, Hi: 0x0ff00ff0f00ff00f}
	ch := cleanChannel128(t, key, 4)
	a := newAttacker128(t, ch, Config{Seed: 6, TotalBudget: 30_000})
	res, err := a.RecoverKey128()
	if err == nil && res.Key != key {
		t.Fatal("wide-line attack returned a wrong key instead of failing")
	}
	if err == nil {
		t.Logf("4-word recovery unexpectedly succeeded in %d encryptions", res.Encryptions)
	}
}

func TestAssembleKey128Inverse(t *testing.T) {
	r := rng.New(31)
	for i := 0; i < 50; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		rks := gift.ExpandKey128(key)
		var two [2]gift.RoundKey128
		copy(two[:], rks[:2])
		if AssembleKey128(two) != key {
			t.Fatalf("AssembleKey128 failed for %v", key)
		}
	}
}

func TestVerify128(t *testing.T) {
	key := bitutil.Word128{Lo: 1, Hi: 2}
	pt := bitutil.Word128{Lo: 3, Hi: 4}
	ct := gift.NewCipher128FromWord(key).EncryptBlock(pt)
	if !Verify128(key, pt, ct) {
		t.Fatal("Verify128 rejected the right key")
	}
	if Verify128(bitutil.Word128{Lo: 9}, pt, ct) {
		t.Fatal("Verify128 accepted a wrong key")
	}
}
