package gift

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
)

// RoundKey128 is the key material for one GIFT-128 round: two 32-bit
// words U and V plus the 6-bit round constant. Bit u_i is XORed into
// state bit 4i+2 and bit v_i into state bit 4i+1.
type RoundKey128 struct {
	U, V  uint32
	Const uint8
}

// Cipher128 is a GIFT-128 instance with an expanded key schedule
// (16-byte blocks).
type Cipher128 struct {
	rk [Rounds128]RoundKey128 //grinch:secret
	// rkm caches spreadKeyBits128 of each round key, as Cipher64.rkm
	// does for GIFT-64.
	rkm [Rounds128]bitutil.Word128 //grinch:secret
}

// NewCipher128 expands a 128-bit key (big-endian byte order) into a
// GIFT-128 cipher.
//
//grinch:secret key
func NewCipher128(key [16]byte) *Cipher128 {
	return NewCipher128FromWord(bitutil.Word128FromBytes(key))
}

// NewCipher128FromWord expands a key given as a 128-bit word. This is
// the GIFT-128 key schedule: round r uses U = k5‖k4, V = k1‖k0 of the
// current key state, which then rotates as in GIFT-64.
//
//grinch:secret key
func NewCipher128FromWord(key bitutil.Word128) *Cipher128 {
	c := &Cipher128{}
	ks := key
	for r := 0; r < Rounds128; r++ {
		c.rk[r] = RoundKey128{
			U:     uint32(ks.Word16(5))<<16 | uint32(ks.Word16(4)),
			V:     uint32(ks.Word16(1))<<16 | uint32(ks.Word16(0)),
			Const: RoundConstants[r],
		}
		c.rkm[r] = spreadKeyBits128(c.rk[r])
		ks = UpdateKeyState(ks)
	}
	return c
}

// BlockSize returns the GIFT-128 block size in bytes.
func (c *Cipher128) BlockSize() int { return 16 }

// Encrypt encrypts the 16-byte block src into dst (big-endian blocks).
func (c *Cipher128) Encrypt(dst, src []byte) {
	pt := word128FromBE(src)
	putWord128BE(dst, c.EncryptBlock(pt))
}

// Decrypt decrypts the 16-byte block src into dst.
func (c *Cipher128) Decrypt(dst, src []byte) {
	ct := word128FromBE(src)
	putWord128BE(dst, c.DecryptBlock(ct))
}

func word128FromBE(b []byte) bitutil.Word128 {
	return bitutil.Word128{
		Hi: binary.BigEndian.Uint64(b[:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

func putWord128BE(b []byte, w bitutil.Word128) {
	binary.BigEndian.PutUint64(b[:8], w.Hi)
	binary.BigEndian.PutUint64(b[8:16], w.Lo)
}

// EncryptBlock encrypts one 128-bit block.
func (c *Cipher128) EncryptBlock(pt bitutil.Word128) bitutil.Word128 {
	s := pt
	for r := 0; r < Rounds128; r++ {
		s = PermBits128(SubCells128(s)).Xor(c.rkm[r])
	}
	return s
}

// DecryptBlock decrypts one 128-bit block.
func (c *Cipher128) DecryptBlock(ct bitutil.Word128) bitutil.Word128 {
	s := ct
	for r := Rounds128 - 1; r >= 0; r-- {
		s = InvSubCells128(InvPermBits128(s.Xor(c.rkm[r])))
	}
	return s
}

// RoundKeys returns the expanded round keys.
func (c *Cipher128) RoundKeys() []RoundKey128 {
	out := make([]RoundKey128, Rounds128)
	copy(out, c.rk[:])
	return out
}

// ExpandKey128 returns the GIFT-128 round keys of key (see
// NewCipher128FromWord for the schedule).
//
//grinch:secret key return
func ExpandKey128(key bitutil.Word128) []RoundKey128 {
	return NewCipher128FromWord(key).RoundKeys()
}

// SubCells128 applies the S-box to all 32 segments.
//
//grinch:secret s
func SubCells128(s bitutil.Word128) bitutil.Word128 {
	return bitutil.Word128{Lo: SubCells64(s.Lo), Hi: SubCells64(s.Hi)}
}

// InvSubCells128 applies the inverse S-box to all 32 segments.
//
//grinch:secret s
func InvSubCells128(s bitutil.Word128) bitutil.Word128 {
	return bitutil.Word128{Lo: InvSubCells64(s.Lo), Hi: InvSubCells64(s.Hi)}
}

// PermBits128 applies the GIFT-128 bit permutation. Writing bit i as
// 16a+4b+c (a < 8), P128 sends it to 32((c−b) mod 4)+4a+c. The network
// transposes the nibbles of each half as GIFT-64 does (16b+4a+c), moves
// b to the top with the cross-word index swaps 4↔6 and 5↔6
// (32b+4a+c), then reflects the 32-bit rows of each slice c, row
// r → c−r.
//
//grinch:secret s return
func PermBits128(s bitutil.Word128) bitutil.Word128 {
	lo, hi := crossSwap(transposeNibbles(s.Lo), transposeNibbles(s.Hi), 0x0000ffff0000ffff, 16)
	return reflectRows128(crossSwap(lo, hi, 0x00000000ffffffff, 32))
}

// InvPermBits128 applies the inverse bit permutation: the steps of
// PermBits128 undone in reverse order (the row reflection is an
// involution).
//
//grinch:secret s return
func InvPermBits128(s bitutil.Word128) bitutil.Word128 {
	s = reflectRows128(s.Lo, s.Hi)
	lo, hi := crossSwap(s.Lo, s.Hi, 0x00000000ffffffff, 32)
	lo, hi = crossSwap(lo, hi, 0x0000ffff0000ffff, 16)
	return bitutil.Word128{Lo: transposeNibbles(lo), Hi: transposeNibbles(hi)}
}

// crossSwap is a delta swap across the two halves of a 128-bit word:
// it exchanges the bits of hi selected by m with the bits of lo d
// places above them.
//
//grinch:secret lo hi
func crossSwap(lo, hi, m uint64, d uint) (uint64, uint64) {
	t := (lo>>d ^ hi) & m
	return lo ^ t<<d, hi ^ t
}

// reflectRows128 moves each bit of slice c of hi‖lo from 32-bit row r
// to row (c−r) mod 4, rows 0..3 being the low and high halves of lo,
// then of hi. Slices 0 and 2 keep a row's half (of the same or the
// other word) and slices 1 and 3 switch it, so each output word is four
// masked terms of lo, hi and their 32-bit rotations. It is an
// involution.
//
//grinch:secret lo hi
func reflectRows128(lo, hi uint64) bitutil.Word128 {
	const same, other = 0x4444444411111111, 0x1111111144444444
	const m1, m3 = 0x2222222222222222, 0x8888888888888888
	x, y := bits.RotateLeft64(lo, 32), bits.RotateLeft64(hi, 32)
	return bitutil.Word128{
		Lo: lo&same | hi&other | x&m1 | y&m3,
		Hi: hi&same | lo&other | y&m1 | x&m3,
	}
}

// AddRoundKey128 XORs the round key into the state: u_i into bit 4i+2,
// v_i into bit 4i+1, the fixed 1 into bit 127 and the constant bits
// c5..c0 into bits 23, 19, 15, 11, 7, 3.
//
//grinch:secret rk return
func AddRoundKey128(s bitutil.Word128, rk RoundKey128) bitutil.Word128 {
	return s.Xor(spreadKeyBits128(rk))
}

// spreadKeyBits128 expands a round key into the 128-bit XOR mask applied
// by AddRoundKey128.
//
//grinch:secret rk return
func spreadKeyBits128(rk RoundKey128) bitutil.Word128 {
	return bitutil.Word128{
		Lo: spread4(uint16(rk.U))<<2 | spread4(uint16(rk.V))<<1 | spread4(uint16(rk.Const&0x3f))<<3,
		Hi: spread4(uint16(rk.U>>16))<<2 | spread4(uint16(rk.V>>16))<<1 | 1<<63,
	}
}

// Round128 applies one full GIFT-128 round.
//
//grinch:secret s rk
func Round128(s bitutil.Word128, rk RoundKey128) bitutil.Word128 {
	return AddRoundKey128(PermBits128(SubCells128(s)), rk)
}

// InvRound128 inverts one GIFT-128 round.
//
//grinch:secret s rk
func InvRound128(s bitutil.Word128, rk RoundKey128) bitutil.Word128 {
	return InvSubCells128(InvPermBits128(AddRoundKey128(s, rk)))
}

// EncryptTraced encrypts like EncryptBlock but reports every S-box lookup
// to obs in execution order.
func (c *Cipher128) EncryptTraced(pt bitutil.Word128, obs SBoxObserver) bitutil.Word128 {
	s := pt
	for r := 0; r < Rounds128; r++ {
		var sub bitutil.Word128
		for i := uint(0); i < Segments128; i++ {
			idx := uint8(s.Nibble(i))
			obs.ObserveSBox(r+1, int(i), idx)
			sub = sub.SetNibble(i, uint64(SBox[idx]))
		}
		s = PermBits128(sub).Xor(c.rkm[r])
	}
	return s
}

// SBoxInputs returns the state at the input of each round's SubCells
// step; the 32 S-box indices of round r are the nibbles of element r-1.
func (c *Cipher128) SBoxInputs(pt bitutil.Word128) []bitutil.Word128 {
	return c.SBoxInputsAppend(make([]bitutil.Word128, 0, Rounds128), pt, Rounds128)
}

// SBoxInputsAppend appends the first n round states of SBoxInputs to dst
// (grown as needed) and returns the extended slice; n is clamped to the
// round count. The trace oracle reuses one buffer across encryptions,
// so its hot loop allocates nothing per encryption. n states take n−1
// rounds: the round after the last reported state is never computed.
// Like Cipher64.SBoxInputsAppend it runs the lookup-free S-box layer.
func (c *Cipher128) SBoxInputsAppend(dst []bitutil.Word128, pt bitutil.Word128, n int) []bitutil.Word128 {
	if n > Rounds128 {
		n = Rounds128
	}
	if n <= 0 {
		return dst
	}
	s := pt
	dst = append(dst, s)
	for r := 1; r < n; r++ {
		s = PermBits128(SubCells128Bitsliced(s)).Xor(c.rkm[r-1])
		dst = append(dst, s)
	}
	return dst
}

// PartialEncrypt128 applies rounds 1..n of the cipher with the
// lookup-free S-box layer, as PartialEncrypt64 does.
//
//grinch:secret rks
func PartialEncrypt128(pt bitutil.Word128, rks []RoundKey128, n int) bitutil.Word128 {
	if n > len(rks) {
		panic(fmt.Sprintf("gift: partial encrypt over %d rounds with %d round keys", n, len(rks)))
	}
	s := pt
	for r := 0; r < n; r++ {
		s = AddRoundKey128(PermBits128(SubCells128Bitsliced(s)), rks[r])
	}
	return s
}

// PartialDecrypt128 inverts rounds n..1.
//
//grinch:secret rks
func PartialDecrypt128(ct bitutil.Word128, rks []RoundKey128, n int) bitutil.Word128 {
	if n > len(rks) {
		panic(fmt.Sprintf("gift: partial decrypt over %d rounds with %d round keys", n, len(rks)))
	}
	s := ct
	for r := n - 1; r >= 0; r-- {
		s = InvSubCells128Bitsliced(InvPermBits128(AddRoundKey128(s, rks[r])))
	}
	return s
}
