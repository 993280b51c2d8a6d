package gift

import (
	"fmt"
	"testing"

	"grinch/internal/bitutil"
)

// BenchmarkSubCells compares the table S-box layer (the victim's) with
// the lookup-free one (the oracle's and the attacker's), forward and
// inverse, for both state widths. Each iteration feeds the previous
// output back in, so the layers run back to back as in a round loop.
func BenchmarkSubCells(b *testing.B) {
	layers64 := []struct {
		name string
		f    func(uint64) uint64
	}{
		{"64/table", SubCells64},
		{"64/bitsliced", SubCells64Bitsliced},
		{"64/inv-table", InvSubCells64},
		{"64/inv-bitsliced", InvSubCells64Bitsliced},
	}
	for _, l := range layers64 {
		b.Run(l.name, func(b *testing.B) {
			s := uint64(0x0123456789abcdef)
			for i := 0; i < b.N; i++ {
				s = l.f(s)
			}
			sinkState = s
		})
	}
	layers128 := []struct {
		name string
		f    func(bitutil.Word128) bitutil.Word128
	}{
		{"128/table", SubCells128},
		{"128/bitsliced", SubCells128Bitsliced},
		{"128/inv-table", InvSubCells128},
		{"128/inv-bitsliced", InvSubCells128Bitsliced},
	}
	for _, l := range layers128 {
		b.Run(l.name, func(b *testing.B) {
			s := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
			for i := 0; i < b.N; i++ {
				s = l.f(s)
			}
			sinkWord = s
		})
	}
}

// BenchmarkSBoxInputsAppend64 is the GIFT-64 trace kernel with the
// window of BenchmarkSBoxInputsAppend128: two states per block.
func BenchmarkSBoxInputsAppend64(b *testing.B) {
	c := NewCipher64FromWord(bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210})
	buf := make([]uint64, 0, Rounds64)
	pt := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.SBoxInputsAppend(buf[:0], pt, 2)
		pt += buf[1]
	}
	sinkState = pt
}

// BenchmarkPartialDecrypt is the attacker's inversion of known rounds:
// a crafted round-n+1 input state back to the plaintext that produces
// it, for the first and third attacked rounds.
func BenchmarkPartialDecrypt(b *testing.B) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	rk64 := NewCipher64FromWord(key).RoundKeys()
	rk128 := NewCipher128FromWord(key).RoundKeys()
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("64/rounds=%d", n), func(b *testing.B) {
			s := uint64(0x0123456789abcdef)
			for i := 0; i < b.N; i++ {
				s = PartialDecrypt64(s, rk64, n)
			}
			sinkState = s
		})
		b.Run(fmt.Sprintf("128/rounds=%d", n), func(b *testing.B) {
			s := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
			for i := 0; i < b.N; i++ {
				s = PartialDecrypt128(s, rk128, n)
			}
			sinkWord = s
		})
	}
}
