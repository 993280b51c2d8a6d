package bitutil_test

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/present"
)

// The cipher permutations are delta-swap networks; their tables
// (gift.Perm64, gift.Perm128, present.Perm and the inverses) are the
// spec and the oracle. Every network step — a masked shift-XOR, a
// masked rotate, an OR of disjoint masked terms — is linear over GF(2),
// so a network that agrees with the per-bit table walk on every unit
// vector agrees with it on every input: the tests below are complete,
// not sampled.

func TestPermNetworks64MatchTables(t *testing.T) {
	for _, c := range []struct {
		name string
		net  func(uint64) uint64
		perm *[64]uint8
	}{
		{"gift.PermBits64", gift.PermBits64, &gift.Perm64},
		{"gift.InvPermBits64", gift.InvPermBits64, &gift.InvPerm64},
		{"present.PermBits", present.PermBits, &present.Perm},
		{"present.InvPermBits", present.InvPermBits, &present.InvPerm},
	} {
		for i := uint(0); i < 64; i++ {
			x := uint64(1) << i
			if got, want := c.net(x), bitutil.PermuteBits64(x, c.perm); got != want {
				t.Fatalf("%s(1<<%d) = %#x, want %#x", c.name, i, got, want)
			}
		}
	}
}

func TestPermNetworks128MatchTables(t *testing.T) {
	for _, c := range []struct {
		name string
		net  func(bitutil.Word128) bitutil.Word128
		perm *[128]uint8
	}{
		{"gift.PermBits128", gift.PermBits128, &gift.Perm128},
		{"gift.InvPermBits128", gift.InvPermBits128, &gift.InvPerm128},
	} {
		for i := uint(0); i < 128; i++ {
			x := bitutil.Word128{}.SetBit(i, 1)
			if got, want := c.net(x), bitutil.PermuteBits128(x, c.perm); got != want {
				t.Fatalf("%s(bit %d) = %#x, want %#x", c.name, i, got, want)
			}
		}
	}
}

// TestPermNetworksAllocateNothing pins the networks to registers: the
// layer benchmarks (gift.BenchmarkPermBits64, BenchmarkPermBits128,
// present.BenchmarkPermBits) report 0 allocs/op, and this keeps it so.
func TestPermNetworksAllocateNothing(t *testing.T) {
	x, w := uint64(0x0123456789abcdef), bitutil.Word128{Lo: 1, Hi: 2}
	for name, f := range map[string]func(){
		"gift64":    func() { x = gift.InvPermBits64(gift.PermBits64(x)) },
		"gift128":   func() { w = gift.InvPermBits128(gift.PermBits128(w)) },
		"present80": func() { x = present.InvPermBits(present.PermBits(x)) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.0f allocs per forward+inverse permutation, want 0", name, n)
		}
	}
}
