package bitutil_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// TestCompilePerm128MatchesTableWalk pins the compiled 128-bit
// permutation to the per-bit table walk on the GIFT-128 tables, the
// identity and random permutations.
func TestCompilePerm128MatchesTableWalk(t *testing.T) {
	var ident [128]uint8
	for i := range ident {
		ident[i] = uint8(i)
	}
	for name, perm := range map[string]*[128]uint8{
		"gift128": &gift.Perm128, "gift128-inverse": &gift.InvPerm128, "identity": &ident,
	} {
		c := bitutil.CompilePerm128(perm)
		f := func(lo, hi uint64) bool {
			w := bitutil.Word128{Lo: lo, Hi: hi}
			return bitutil.ApplyPerm128(w, &c) == bitutil.PermuteBits128(w, perm)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	random := func(seed int64, lo, hi uint64) bool {
		var perm [128]uint8
		for i, p := range rand.New(rand.NewSource(seed)).Perm(128) {
			perm[i] = uint8(p)
		}
		c := bitutil.CompilePerm128(&perm)
		w := bitutil.Word128{Lo: lo, Hi: hi}
		return bitutil.ApplyPerm128(w, &c) == bitutil.PermuteBits128(w, &perm)
	}
	if err := quick.Check(random, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompilePerm128GIFTClassCount pins the class count the GIFT-128
// kernel's cost rests on: 16 rotation classes per half pair.
func TestCompilePerm128GIFTClassCount(t *testing.T) {
	for _, perm := range []*[128]uint8{&gift.Perm128, &gift.InvPerm128} {
		c := bitutil.CompilePerm128(perm)
		for src := range c {
			for dst := range c[src] {
				if n := len(c[src][dst]); n != 16 {
					t.Fatalf("half pair (%d,%d): %d classes, want 16", src, dst, n)
				}
			}
		}
	}
}
