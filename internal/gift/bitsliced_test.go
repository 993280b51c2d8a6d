package gift

import (
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
)

// TestSBoxCircuitExhaustive verifies the boolean S-box circuit against
// the lookup table for all 16 inputs, one nibble at a time.
func TestSBoxCircuitExhaustive(t *testing.T) {
	for x := uint64(0); x < 16; x++ {
		got := SubCells64Bitsliced(x) & 0xf
		if got != uint64(SBox[x]) {
			t.Errorf("circuit S(%#x) = %#x, table says %#x", x, got, SBox[x])
		}
		gotInv := InvSubCells64Bitsliced(x) & 0xf
		if gotInv != uint64(InvSBox[x]) {
			t.Errorf("circuit S⁻¹(%#x) = %#x, table says %#x", x, gotInv, InvSBox[x])
		}
	}
}

func TestSubCells64BitslicedQuick(t *testing.T) {
	f := func(s uint64) bool {
		return SubCells64Bitsliced(s) == SubCells64(s) &&
			InvSubCells64Bitsliced(s) == InvSubCells64(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubCells128BitslicedQuick(t *testing.T) {
	f := func(lo, hi uint64) bool {
		s := bitutil.Word128{Lo: lo, Hi: hi}
		return SubCells128Bitsliced(s) == SubCells128(s) &&
			InvSubCells128Bitsliced(s) == InvSubCells128(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitslicedKnownAnswers(t *testing.T) {
	for _, kat := range gift64KATs {
		c := NewCipher64(mustKey(t, kat.key))
		pt := mustUint64(t, kat.pt)
		want := mustUint64(t, kat.ct)
		if got := c.EncryptBlockBitsliced(pt); got != want {
			t.Errorf("bitsliced Encrypt(%s) = %016x, want %s", kat.pt, got, kat.ct)
		}
	}
	for _, kat := range gift128KATs {
		c := NewCipher128(mustKey(t, kat.key))
		pt := mustWord128(t, kat.pt)
		want := mustWord128(t, kat.ct)
		if got := c.EncryptBlockBitsliced(pt); got != want {
			t.Errorf("bitsliced 128 Encrypt(%s) != KAT", kat.pt)
		}
	}
}
