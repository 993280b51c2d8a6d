package bitutil

import (
	"testing"
	"testing/quick"
)

func TestBitSetBit(t *testing.T) {
	f := func(x uint64, i uint8, v uint64) bool {
		pos := uint(i) % 64
		y := SetBit(x, pos, v)
		if Bit(y, pos) != v&1 {
			return false
		}
		// all other bits unchanged
		return y&^(1<<pos) == x&^(1<<pos)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNibbleSetNibble(t *testing.T) {
	f := func(x uint64, i uint8, v uint64) bool {
		pos := uint(i) % 16
		y := SetNibble(x, pos, v)
		if Nibble(y, pos) != v&0xf {
			return false
		}
		mask := uint64(0xf) << (4 * pos)
		return y&^mask == x&^mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRot16(t *testing.T) {
	cases := []struct {
		x    uint16
		n    uint
		want uint16
	}{
		{0x0001, 1, 0x8000},
		{0x8000, 1, 0x4000},
		{0x1234, 0, 0x1234},
		{0x1234, 16, 0x1234},
		{0xabcd, 4, 0xdabc},
	}
	for _, c := range cases {
		if got := RotR16(c.x, c.n); got != c.want {
			t.Errorf("RotR16(%#x, %d) = %#x, want %#x", c.x, c.n, got, c.want)
		}
	}
}

func TestWord128BitAccess(t *testing.T) {
	f := func(lo, hi uint64, i uint8, v uint64) bool {
		w := Word128{Lo: lo, Hi: hi}
		pos := uint(i) % 128
		y := w.SetBit(pos, v)
		return y.Bit(pos) == v&1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWord128NibbleAccess(t *testing.T) {
	f := func(lo, hi uint64, i uint8, v uint64) bool {
		w := Word128{Lo: lo, Hi: hi}
		pos := uint(i) % 32
		y := w.SetNibble(pos, v)
		if y.Nibble(pos) != v&0xf {
			return false
		}
		// other nibbles unchanged
		for j := uint(0); j < 32; j++ {
			if j != pos && y.Nibble(j) != w.Nibble(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWord128Word16(t *testing.T) {
	w := Word128{Lo: 0x3333222211110000, Hi: 0x7777666655554444}
	for i := uint(0); i < 8; i++ {
		want := uint16(0x1111 * i)
		if got := w.Word16(i); got != want {
			t.Errorf("Word16(%d) = %#x, want %#x", i, got, want)
		}
	}
	f := func(lo, hi uint64, i uint8, v uint16) bool {
		w := Word128{Lo: lo, Hi: hi}
		pos := uint(i) % 8
		y := w.SetWord16(pos, v)
		if y.Word16(pos) != v {
			return false
		}
		for j := uint(0); j < 8; j++ {
			if j != pos && y.Word16(j) != w.Word16(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWord128BytesRoundTrip(t *testing.T) {
	f := func(lo, hi uint64) bool {
		w := Word128{Lo: lo, Hi: hi}
		return Word128FromBytes(w.Bytes()) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Byte order: most significant byte first.
	w := Word128{Hi: 0x0102030405060708, Lo: 0x090a0b0c0d0e0f10}
	b := w.Bytes()
	for i := 0; i < 16; i++ {
		if b[i] != byte(i+1) {
			t.Fatalf("Bytes()[%d] = %#x, want %#x", i, b[i], i+1)
		}
	}
}

// PermuteBits64 is the per-bit reference for the cipher permutation
// networks: output bit perm[i] receives input bit i. It is exported so
// the external test package can compare the networks against it.
func PermuteBits64(x uint64, perm *[64]uint8) uint64 {
	var out uint64
	for i := uint(0); i < 64; i++ {
		out |= ((x >> i) & 1) << perm[i]
	}
	return out
}

// PermuteBits128 is PermuteBits64 for 128-entry tables.
func PermuteBits128(w Word128, perm *[128]uint8) Word128 {
	var out Word128
	for i := uint(0); i < 128; i++ {
		if w.Bit(i) != 0 {
			out = out.SetBit(uint(perm[i]), 1)
		}
	}
	return out
}

func TestPermuteBits64Identity(t *testing.T) {
	var id [64]uint8
	for i := range id {
		id[i] = uint8(i)
	}
	f := func(x uint64) bool { return PermuteBits64(x, &id) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteBits64PreservesPopcount(t *testing.T) {
	perm := rotPerm64(13)
	f := func(x uint64) bool {
		y := PermuteBits64(x, &perm)
		return popcount(y) == popcount(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func rotPerm64(k int) [64]uint8 {
	var p [64]uint8
	for i := range p {
		p[i] = uint8((i + k) % 64)
	}
	return p
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestInvertPerm64RoundTrip(t *testing.T) {
	perm := rotPerm64(29)
	inv := InvertPerm64(&perm)
	f := func(x uint64) bool {
		return PermuteBits64(PermuteBits64(x, &perm), &inv) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvertPerm64PanicsOnNonPermutation(t *testing.T) {
	var bad [64]uint8 // all zeros: not a permutation
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate entries")
		}
	}()
	InvertPerm64(&bad)
}

func TestInvertSBoxPanicsOnNonPermutation(t *testing.T) {
	bad := [16]uint8{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate entries")
		}
	}()
	InvertSBox(&bad)
}

func TestPermuteBits128RoundTrip(t *testing.T) {
	var perm [128]uint8
	for i := range perm {
		perm[i] = uint8((i + 41) % 128)
	}
	inv := InvertPerm128(&perm)
	f := func(lo, hi uint64) bool {
		w := Word128{Lo: lo, Hi: hi}
		return PermuteBits128(PermuteBits128(w, &perm), &inv) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXor(t *testing.T) {
	f := func(aLo, aHi, bLo, bHi uint64) bool {
		a := Word128{Lo: aLo, Hi: aHi}
		b := Word128{Lo: bLo, Hi: bHi}
		return a.Xor(b).Xor(b) == a && a.Xor(a) == (Word128{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// naiveTranspose64 is the bit-by-bit reference for Transpose64.
func naiveTranspose64(a *[64]uint64) [64]uint64 {
	var out [64]uint64
	for i := uint(0); i < 64; i++ {
		for j := uint(0); j < 64; j++ {
			out[i] |= Bit(a[j], i) << j
		}
	}
	return out
}

func TestTranspose64AgainstNaive(t *testing.T) {
	var a [64]uint64
	// A deterministic full-entropy fill (SplitMix64 constants) plus a few
	// structured patterns.
	x := uint64(0x9e3779b97f4a7c15)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = x
	}
	want := naiveTranspose64(&a)
	got := a
	Transpose64(&got)
	if got != want {
		t.Fatal("Transpose64 disagrees with the naive transpose")
	}
}

func TestTranspose64Structured(t *testing.T) {
	cases := [][64]uint64{
		{},            // all zero
		{0: 1},        // single bit at (0,0)
		{63: 1 << 63}, // single bit at (63,63)
		{5: 1 << 17},  // single off-diagonal bit
	}
	for _, a := range cases {
		want := naiveTranspose64(&a)
		got := a
		Transpose64(&got)
		if got != want {
			t.Fatalf("Transpose64 disagrees with naive transpose on %v", a)
		}
	}
}

func TestTranspose64Involution(t *testing.T) {
	var a [64]uint64
	for i := range a {
		a[i] = uint64(i) * 0xbf58476d1ce4e5b9
	}
	b := a
	Transpose64(&b)
	Transpose64(&b)
	if a != b {
		t.Fatal("Transpose64 applied twice did not restore the input")
	}
}
