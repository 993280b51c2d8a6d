package gift

import (
	"testing"

	"grinch/internal/bitutil"
)

// Native fuzz targets. Under plain `go test` these run their seed
// corpus as unit tests; `go test -fuzz=FuzzGift64 ./internal/gift`
// explores further.

func FuzzGift64RoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0xfedcba9876543210), uint64(0xfedcba9876543210), uint64(0xfedcba9876543210))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, keyLo, keyHi, pt uint64) {
		c := NewCipher64FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		ct := c.EncryptBlock(pt)
		if c.DecryptBlock(ct) != pt {
			t.Fatalf("round trip failed for key %x%x pt %x", keyHi, keyLo, pt)
		}
		if c.EncryptBlockBitsliced(pt) != ct {
			t.Fatalf("bitsliced disagrees for key %x%x pt %x", keyHi, keyLo, pt)
		}
	})
}

func FuzzGift128RoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, keyLo, keyHi, ptLo, ptHi uint64) {
		c := NewCipher128FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		pt := bitutil.Word128{Lo: ptLo, Hi: ptHi}
		ct := c.EncryptBlock(pt)
		if c.DecryptBlock(ct) != pt {
			t.Fatal("round trip failed")
		}
		if c.EncryptBlockBitsliced(pt) != ct {
			t.Fatal("bitsliced disagrees")
		}
	})
}

// FuzzSubCellsMatchesTable pins the lookup-free S-box layer to the
// table for any 64- and 128-bit state, and the callers that switched to
// it to their table-based counterparts: PartialEncrypt/PartialDecrypt
// against the Round/InvRound chain under arbitrary round keys (not only
// schedule outputs), and SBoxInputsAppend against the indices that
// EncryptTraced reports.
func FuzzSubCellsMatchesTable(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(1))
	f.Add(uint64(0xfedcba9876543210), uint64(0x0123456789abcdef), uint64(1), uint64(2), uint8(3))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint8(255))
	f.Fuzz(func(t *testing.T, lo, hi, keyLo, keyHi uint64, rounds uint8) {
		s := bitutil.Word128{Lo: lo, Hi: hi}
		if got, want := SubCells64Bitsliced(lo), SubCells64(lo); got != want {
			t.Fatalf("SubCells64Bitsliced(%#x) = %#x, table %#x", lo, got, want)
		}
		if got, want := InvSubCells64Bitsliced(lo), InvSubCells64(lo); got != want {
			t.Fatalf("InvSubCells64Bitsliced(%#x) = %#x, table %#x", lo, got, want)
		}
		if got, want := SubCells128Bitsliced(s), SubCells128(s); got != want {
			t.Fatalf("SubCells128Bitsliced(%v) = %v, table %v", s, got, want)
		}
		if got, want := InvSubCells128Bitsliced(s), InvSubCells128(s); got != want {
			t.Fatalf("InvSubCells128Bitsliced(%v) = %v, table %v", s, got, want)
		}

		// Arbitrary round keys: a xorshift stream seeded by the key words.
		x := keyLo ^ keyHi<<1 | 1
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		n64, n128 := int(rounds)%(Rounds64+1), int(rounds)%(Rounds128+1)
		rk64 := make([]RoundKey64, n64)
		for r := range rk64 {
			v := next()
			rk64[r] = RoundKey64{U: uint16(v), V: uint16(v >> 16), Const: uint8(v >> 32)}
		}
		rk128 := make([]RoundKey128, n128)
		for r := range rk128 {
			v := next()
			rk128[r] = RoundKey128{U: uint32(v), V: uint32(v >> 32), Const: uint8(next())}
		}
		want64 := lo
		for _, rk := range rk64 {
			want64 = Round64(want64, rk)
		}
		if got := PartialEncrypt64(lo, rk64, n64); got != want64 {
			t.Fatalf("PartialEncrypt64 over %d rounds = %#x, table %#x", n64, got, want64)
		}
		back64 := want64
		for r := n64 - 1; r >= 0; r-- {
			back64 = InvRound64(back64, rk64[r])
		}
		if got := PartialDecrypt64(want64, rk64, n64); got != back64 || got != lo {
			t.Fatalf("PartialDecrypt64 over %d rounds = %#x, table %#x, want %#x", n64, got, back64, lo)
		}
		want128 := s
		for _, rk := range rk128 {
			want128 = Round128(want128, rk)
		}
		if got := PartialEncrypt128(s, rk128, n128); got != want128 {
			t.Fatalf("PartialEncrypt128 over %d rounds = %v, table %v", n128, got, want128)
		}
		back128 := want128
		for r := n128 - 1; r >= 0; r-- {
			back128 = InvRound128(back128, rk128[r])
		}
		if got := PartialDecrypt128(want128, rk128, n128); got != back128 || got != s {
			t.Fatalf("PartialDecrypt128 over %d rounds = %v, table %v, want %v", n128, got, back128, s)
		}

		// The oracle's trace against the table path's lookup stream.
		key := bitutil.Word128{Lo: keyLo, Hi: keyHi}
		c64 := NewCipher64FromWord(key)
		states64 := c64.SBoxInputs(lo)
		c64.EncryptTraced(lo, ObserverFunc(func(round, segment int, index uint8) {
			if got := uint8(bitutil.Nibble(states64[round-1], uint(segment))); got != index {
				t.Fatalf("GIFT-64 round %d segment %d: SBoxInputs nibble %#x, traced index %#x", round, segment, got, index)
			}
		}))
		c128 := NewCipher128FromWord(key)
		states128 := c128.SBoxInputs(s)
		c128.EncryptTraced(s, ObserverFunc(func(round, segment int, index uint8) {
			if got := uint8(states128[round-1].Nibble(uint(segment))); got != index {
				t.Fatalf("GIFT-128 round %d segment %d: SBoxInputs nibble %#x, traced index %#x", round, segment, got, index)
			}
		}))
	})
}
