// Package bitutil provides the small bit- and nibble-level helpers shared
// by the GIFT cipher implementation, the attack code and the simulators.
//
// GIFT state conventions used throughout this repository:
//
//   - A GIFT-64 state is a uint64 whose bit 0 is the cipher's b0 (least
//     significant bit of segment 0) and whose bit 63 is b63.
//   - A GIFT-128 state is a [2]uint64 pair (see Word128) with W[0]
//     carrying bits 0..63 and W[1] carrying bits 64..127.
//   - "Segment i" is the 4-bit nibble occupying bits 4i..4i+3.
package bitutil

// Bit returns bit i (0 = least significant) of x as 0 or 1.
func Bit(x uint64, i uint) uint64 {
	return (x >> i) & 1
}

// SetBit returns x with bit i forced to the low bit of v.
func SetBit(x uint64, i uint, v uint64) uint64 {
	return (x &^ (1 << i)) | ((v & 1) << i)
}

// Nibble returns the 4-bit segment i (bits 4i..4i+3) of x.
func Nibble(x uint64, i uint) uint64 {
	return (x >> (4 * i)) & 0xf
}

// SetNibble returns x with segment i replaced by the low 4 bits of v.
func SetNibble(x uint64, i uint, v uint64) uint64 {
	shift := 4 * i
	return (x &^ (0xf << shift)) | ((v & 0xf) << shift)
}

// RotR16 rotates a 16-bit word right by n positions.
func RotR16(x uint16, n uint) uint16 {
	n %= 16
	if n == 0 {
		return x
	}
	return x>>n | x<<(16-n)
}

// Word128 is a 128-bit little-endian word: W[0] holds bits 0..63 and W[1]
// holds bits 64..127. It is the state container for GIFT-128 and the key
// container for both GIFT variants.
type Word128 struct {
	Lo, Hi uint64
}

// Bit returns bit i (0..127) of w.
func (w Word128) Bit(i uint) uint64 {
	if i < 64 {
		return Bit(w.Lo, i)
	}
	return Bit(w.Hi, i-64)
}

// SetBit returns w with bit i forced to the low bit of v.
func (w Word128) SetBit(i uint, v uint64) Word128 {
	if i < 64 {
		w.Lo = SetBit(w.Lo, i, v)
	} else {
		w.Hi = SetBit(w.Hi, i-64, v)
	}
	return w
}

// Nibble returns 4-bit segment i (0..31) of w.
func (w Word128) Nibble(i uint) uint64 {
	if i < 16 {
		return Nibble(w.Lo, i)
	}
	return Nibble(w.Hi, i-16)
}

// SetNibble returns w with segment i replaced by the low 4 bits of v.
func (w Word128) SetNibble(i uint, v uint64) Word128 {
	if i < 16 {
		w.Lo = SetNibble(w.Lo, i, v)
	} else {
		w.Hi = SetNibble(w.Hi, i-16, v)
	}
	return w
}

// Xor returns w ^ o.
func (w Word128) Xor(o Word128) Word128 {
	return Word128{Lo: w.Lo ^ o.Lo, Hi: w.Hi ^ o.Hi}
}

// Word16 returns the i-th 16-bit limb of w (limb 0 = bits 0..15, limb 7 =
// bits 112..127). GIFT's key schedule is specified in these limbs.
func (w Word128) Word16(i uint) uint16 {
	if i < 4 {
		return uint16(w.Lo >> (16 * i))
	}
	return uint16(w.Hi >> (16 * (i - 4)))
}

// SetWord16 returns w with 16-bit limb i replaced by v.
func (w Word128) SetWord16(i uint, v uint16) Word128 {
	if i < 4 {
		shift := 16 * i
		w.Lo = w.Lo&^(0xffff<<shift) | uint64(v)<<shift
	} else {
		shift := 16 * (i - 4)
		w.Hi = w.Hi&^(0xffff<<shift) | uint64(v)<<shift
	}
	return w
}

// Bytes returns w as 16 bytes, most significant byte first (the byte order
// used by the GIFT reference implementation and its test vectors).
func (w Word128) Bytes() [16]byte {
	var out [16]byte
	for i := 0; i < 8; i++ {
		out[i] = byte(w.Hi >> (56 - 8*uint(i)))
		out[8+i] = byte(w.Lo >> (56 - 8*uint(i)))
	}
	return out
}

// Word128FromBytes builds a Word128 from 16 bytes, most significant first.
func Word128FromBytes(b [16]byte) Word128 {
	var w Word128
	for i := 0; i < 8; i++ {
		w.Hi = w.Hi<<8 | uint64(b[i])
		w.Lo = w.Lo<<8 | uint64(b[8+i])
	}
	return w
}

// Transpose64 transposes a 64×64 bit matrix in place: after the call,
// bit j of word i equals bit i of the original word j. The routine is
// the classic recursive block swap (Hacker's Delight §7-3) — six passes
// of masked shift-XOR swaps, no branches on the data — and is its own
// inverse. It is the pivot between "one word per block" and "one word
// per bit plane" layouts used by the batched attack pipeline: 64 cipher
// states become 64 bit planes (and back), and 64 probe observations
// become per-line occupancy words whose popcounts are the eliminator's
// presence counts.
func Transpose64(a *[64]uint64) {
	// Six butterfly passes with the shift and mask fixed per pass: the
	// constant shifts compile to immediate-operand instructions and the
	// block loops to simple counted loops, roughly halving the cost of
	// the generic variable-shift formulation on the batch hot path.
	transposePass(a, 32, 0x00000000ffffffff)
	transposePass(a, 16, 0x0000ffff0000ffff)
	transposePass(a, 8, 0x00ff00ff00ff00ff)
	transposePass(a, 4, 0x0f0f0f0f0f0f0f0f)
	transposePass(a, 2, 0x3333333333333333)
	transposePass(a, 1, 0x5555555555555555)
}

// transposePass swaps the j-distance sub-blocks of the bit matrix; the
// compiler inlines each fixed-j call in Transpose64.
func transposePass(a *[64]uint64, j int, m uint64) {
	for base := 0; base < 64; base += 2 * j {
		for k := base; k < base+j; k++ {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// DeltaSwap exchanges the bits of x selected by m with the bits d
// places above them (m must not overlap m<<d): the branch-free building
// block of the cipher bit permutations, each a short network of delta
// swaps with constant masks (Hacker's Delight §7-5).
func DeltaSwap(x, m uint64, d uint) uint64 {
	t := (x ^ x>>d) & m
	return x ^ t ^ t<<d
}

// InvertPerm64 returns the inverse of a 64-entry permutation table.
// It panics if perm is not a permutation of 0..63; permutation tables are
// compile-time constants, so a malformed table is a programming error.
func InvertPerm64(perm *[64]uint8) [64]uint8 {
	var inv [64]uint8
	var seen [64]bool
	for i, p := range perm {
		if p >= 64 || seen[p] {
			panic("bitutil: table is not a permutation of 0..63")
		}
		seen[p] = true
		inv[p] = uint8(i)
	}
	return inv
}

// InvertPerm128 returns the inverse of a 128-entry permutation table,
// panicking on malformed tables as InvertPerm64 does.
func InvertPerm128(perm *[128]uint8) [128]uint8 {
	var inv [128]uint8
	var seen [128]bool
	for i, p := range perm {
		if p >= 128 || seen[p] {
			panic("bitutil: table is not a permutation of 0..127")
		}
		seen[p] = true
		inv[p] = uint8(i)
	}
	return inv
}

// InvertSBox returns the inverse of a 16-entry substitution box.
// It panics if sbox is not a permutation of 0..15.
func InvertSBox(sbox *[16]uint8) [16]uint8 {
	var inv [16]uint8
	var seen [16]bool
	for i, v := range sbox {
		if v >= 16 || seen[v] {
			panic("bitutil: table is not a permutation of 0..15")
		}
		seen[v] = true
		inv[v] = uint8(i)
	}
	return inv
}
