package gift

import "grinch/internal/bitutil"

// This file contains the lookup-free GIFT S-box layer. The S-box is
// computed with boolean operations on bit planes, so no data-dependent
// memory access ever occurs: this is the constant-time software style
// the GRINCH paper's first countermeasure discussion motivates. The
// attacker and the ideal oracle, which only need S-box values, run
// their scalar layers through it; the table-based layer of gift64.go
// stays the paper's victim implementation.
//
// sboxPlanes is the one copy of the circuit published with the GIFT
// specification:
//
//	S1 ^= S0 & S2;  S0 ^= S1 & S3;  S2 ^= S0 | S1;
//	S3 ^= S2;       S1 ^= S3;       S3 = ~S3;
//	S2 ^= S0 & S1;  swap(S0, S3)
//
// Batch64 evaluates it on 64-lane planes, one block per bit. The scalar
// layers evaluate it nibble-sliced on the packed state: plane j is
// s>>j, whose bit 4i is index bit j of segment i. Boolean operations
// never move a bit between positions, so the other bits of a plane,
// whatever they hold, never reach bit 4i; masking each output plane
// to the bits 4i drops them, so the input planes need no mask. The
// circuit and the 64-bit layers built on it fit the compiler's inlining
// budget, so their callers pay no call; the unmasked inputs and the
// folded complements below keep them within it. (Verified exhaustively
// against the lookup table in bitsliced_test.go.)

// sboxPlanes applies the GIFT S-box circuit to four bit planes. The
// complement of S3 is taken on return: the final S2 step does not read
// S3, so this computes the published order.
//
//grinch:secret
func sboxPlanes(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	s1 ^= s0 & s2
	s0 ^= s1 & s3
	s2 ^= s0 | s1
	s3 ^= s2
	s1 ^= s3
	s2 ^= s0 & s1
	return ^s3, s1, s2, s0 // swap(S0, S3)
}

// invSBoxPlanes inverts sboxPlanes: it takes the planes in sboxPlanes'
// output order (undoing the swap) and undoes each step in reverse
// order, with the complement of S3 folded into the two steps that
// read it.
//
//grinch:secret
func invSBoxPlanes(s3, s1, s2, s0 uint64) (uint64, uint64, uint64, uint64) {
	s2 ^= s0 & s1
	s1 ^= ^s3
	s3 ^= ^s2
	s2 ^= s0 | s1
	s0 ^= s1 & s3
	s1 ^= s0 & s2
	return s0, s1, s2, s3
}

// nibblePlane selects bit 0 of every segment of a packed state.
const nibblePlane = 0x1111111111111111

// SubCells64Bitsliced applies the S-box layer to a GIFT-64 state without
// any table lookup. The state is as secret as in SubCells64; grinchvet
// verifies that, unlike the table path, no secret-indexed access or
// secret branch exists here. It runs the circuit nibble-sliced on the
// packed word: bit 4i of s>>j is index bit j of segment i, and only
// those bits of the outputs are kept.
//
//grinch:secret s
func SubCells64Bitsliced(s uint64) uint64 {
	const m = nibblePlane
	q0, q1, q2, q3 := sboxPlanes(s, s>>1, s>>2, s>>3)
	return q0&m | (q1&m)<<1 | (q2&m)<<2 | (q3&m)<<3
}

// InvSubCells64Bitsliced applies the inverse S-box layer without lookups.
//
//grinch:secret s
func InvSubCells64Bitsliced(s uint64) uint64 {
	const m = nibblePlane
	q0, q1, q2, q3 := invSBoxPlanes(s, s>>1, s>>2, s>>3)
	return q0&m | (q1&m)<<1 | (q2&m)<<2 | (q3&m)<<3
}

// EncryptBlockBitsliced encrypts one GIFT-64 block using the lookup-free
// S-box layer. Produces bit-identical output to Cipher64.EncryptBlock.
func (c *Cipher64) EncryptBlockBitsliced(pt uint64) uint64 {
	s := pt
	for r := 0; r < Rounds64; r++ {
		s = PermBits64(SubCells64Bitsliced(s)) ^ c.rkm[r]
	}
	return s
}

// DecryptBlockBitsliced decrypts one GIFT-64 block without lookups.
func (c *Cipher64) DecryptBlockBitsliced(ct uint64) uint64 {
	s := ct
	for r := Rounds64 - 1; r >= 0; r-- {
		s = InvSubCells64Bitsliced(InvPermBits64(s ^ c.rkm[r]))
	}
	return s
}

// SubCells128Bitsliced applies the S-box layer to a GIFT-128 state
// without any table lookup.
//
//grinch:secret s
func SubCells128Bitsliced(s bitutil.Word128) bitutil.Word128 {
	return bitutil.Word128{Lo: SubCells64Bitsliced(s.Lo), Hi: SubCells64Bitsliced(s.Hi)}
}

// InvSubCells128Bitsliced applies the inverse S-box layer without
// lookups.
//
//grinch:secret s
func InvSubCells128Bitsliced(s bitutil.Word128) bitutil.Word128 {
	return bitutil.Word128{Lo: InvSubCells64Bitsliced(s.Lo), Hi: InvSubCells64Bitsliced(s.Hi)}
}

// EncryptBlockBitsliced encrypts one GIFT-128 block using the lookup-free
// S-box layer.
func (c *Cipher128) EncryptBlockBitsliced(pt bitutil.Word128) bitutil.Word128 {
	s := pt
	for r := 0; r < Rounds128; r++ {
		s = PermBits128(SubCells128Bitsliced(s)).Xor(c.rkm[r])
	}
	return s
}

// DecryptBlockBitsliced decrypts one GIFT-128 block without lookups.
//
//grinchvet:ignore deadexport the constant-time inverse TestGift128BitslicedAgreesQuick checks against the table cipher
func (c *Cipher128) DecryptBlockBitsliced(ct bitutil.Word128) bitutil.Word128 {
	s := ct
	for r := Rounds128 - 1; r >= 0; r-- {
		s = InvSubCells128Bitsliced(InvPermBits128(s.Xor(c.rkm[r])))
	}
	return s
}
