// Package present implements the PRESENT ultra-lightweight block cipher
// (Bogdanov et al., CHES 2007; ISO/IEC 29192-2), the direct ancestor of
// GIFT and the paper's main point of comparison (§II): GIFT was designed
// to relax PRESENT's branching-number-3 S-box requirement.
//
// PRESENT is included both as the comparison substrate and as a second
// target for the GRINCH attack methodology (internal/core, Attacker​P):
// unlike GIFT, PRESENT XORs the round key into the *whole* state before
// SubCells, so every pinned S-box access leaks four key bits instead of
// two — making table-based PRESENT software strictly easier prey for an
// access-driven attacker.
//
// Conventions match internal/gift: state bit 0 is the least significant,
// segment i is the nibble at bits 4i..4i+3.
package present

import (
	"encoding/binary"

	"grinch/internal/bitutil"
)

// Rounds is the number of full rounds; a 32nd round key is XORed at the
// end (post-whitening).
const Rounds = 31

// Segments is the number of 4-bit segments per state.
const Segments = 16

// SBox is the PRESENT substitution box.
var SBox = [16]uint8{
	0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd,
	0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2,
}

// InvSBox is the inverse of SBox.
var InvSBox = bitutil.InvertSBox(&SBox)

// Perm is the PRESENT bit permutation: bit i moves to position
// P(i) = 16i mod 63 (with bit 63 fixed).
var Perm = genPerm()

// InvPerm is the inverse of Perm.
var InvPerm = bitutil.InvertPerm64(&Perm)

func genPerm() [64]uint8 {
	var p [64]uint8
	for i := 0; i < 63; i++ {
		p[i] = uint8(i * 16 % 63)
	}
	p[63] = 63
	return p
}

// SubCells applies the S-box to all 16 segments. PRESENT XORs the round
// key into the state *before* SubCells, so the table indices are
// key-dependent from the very first round — the property that makes
// table-based PRESENT strictly easier prey for GRINCH-P.
//
//grinch:secret s
func SubCells(s uint64) uint64 {
	var out uint64
	for i := uint(0); i < Segments; i++ {
		out |= uint64(SBox[(s>>(4*i))&0xf]) << (4 * i)
	}
	return out
}

// InvSubCells applies the inverse S-box to all 16 segments.
//
//grinch:secret s
func InvSubCells(s uint64) uint64 {
	var out uint64
	for i := uint(0); i < Segments; i++ {
		out |= uint64(InvSBox[(s>>(4*i))&0xf]) << (4 * i)
	}
	return out
}

// PermBits applies the PRESENT pLayer. Bit 4s+k moves to
// 16(4s+k) mod 63 = 16k+s: the pLayer transposes the 16×4 matrix of
// segments by bit positions, which four delta swaps do by exchanging
// index bits 0↔2, 1↔3, 2↔4 and 3↔5.
//
//grinch:secret s
func PermBits(s uint64) uint64 {
	s = bitutil.DeltaSwap(s, 0x0a0a0a0a0a0a0a0a, 3)
	s = bitutil.DeltaSwap(s, 0x00cc00cc00cc00cc, 6)
	s = bitutil.DeltaSwap(s, 0x0000f0f00000f0f0, 12)
	return bitutil.DeltaSwap(s, 0x00000000ff00ff00, 24)
}

// InvPermBits applies the inverse pLayer: the same swaps in reverse
// order.
//
//grinch:secret s
func InvPermBits(s uint64) uint64 {
	s = bitutil.DeltaSwap(s, 0x00000000ff00ff00, 24)
	s = bitutil.DeltaSwap(s, 0x0000f0f00000f0f0, 12)
	s = bitutil.DeltaSwap(s, 0x00cc00cc00cc00cc, 6)
	return bitutil.DeltaSwap(s, 0x0a0a0a0a0a0a0a0a, 3)
}

// Round applies one PRESENT round: addRoundKey, sBoxLayer, pLayer.
// Note the ordering difference from GIFT (key first): the very first
// round's S-box indices are already key-dependent, which is what makes
// the GRINCH adaptation recover four key bits per segment.
//
//grinch:secret s rk
func Round(s, rk uint64) uint64 {
	return PermBits(SubCells(s ^ rk))
}

// InvRound inverts one round.
//
//grinch:secret s rk
func InvRound(s, rk uint64) uint64 {
	return InvSubCells(InvPermBits(s)) ^ rk
}

// Cipher80 is PRESENT-80 with an expanded key schedule.
type Cipher80 struct {
	rk [Rounds + 1]uint64 //grinch:secret
}

// key80 is the 80-bit key register, kept as hi (top 16 bits, i.e. key
// bits 79..64) and lo (bits 63..0).
type key80 struct {
	hi uint16
	lo uint64
}

// NewCipher80 expands a 10-byte key (big-endian, k79 first).
//
//grinch:secret key
func NewCipher80(key [10]byte) *Cipher80 {
	reg := key80{
		hi: binary.BigEndian.Uint16(key[:2]),
		lo: binary.BigEndian.Uint64(key[2:]),
	}
	c := &Cipher80{}
	for r := 0; r <= Rounds; r++ {
		c.rk[r] = roundKey80(reg)
		reg = updateKey80(reg, uint64(r+1))
	}
	return c
}

// roundKey80 extracts the round key: the top 64 bits of the register
// (bits 79..16).
//
//grinch:secret k return
func roundKey80(k key80) uint64 {
	return uint64(k.hi)<<48 | k.lo>>16
}

// updateKey80 is the PRESENT-80 key schedule step: rotate the register
// left by 61, S-box the top nibble, XOR the round counter into bits
// 19..15. The S-box step is a key-dependent table lookup — PRESENT's key
// schedule itself leaks through a shared cache.
//
//grinch:secret k return
func updateKey80(k key80, counter uint64) key80 {
	// Rotate left 61 over 80 bits = right 19: new bits 0..44 are old
	// bits 19..63, 45..60 are old 64..79 and 61..79 are old 0..18.
	nlo := k.lo>>19 | uint64(k.hi)<<45 | k.lo<<61
	nhi := uint16(k.lo >> 3)
	// S-box on bits 79..76.
	top := uint8(nhi >> 12)
	nhi = nhi&0x0fff | uint16(SBox[top])<<12
	// Counter into bits 19..15.
	nlo ^= (counter & 0x1f) << 15
	return key80{hi: nhi, lo: nlo}
}

// BlockSize returns the PRESENT block size in bytes.
func (c *Cipher80) BlockSize() int { return 8 }

// EncryptBlock encrypts one 64-bit block.
func (c *Cipher80) EncryptBlock(pt uint64) uint64 {
	s := pt
	for r := 0; r < Rounds; r++ {
		s = Round(s, c.rk[r])
	}
	return s ^ c.rk[Rounds]
}

// DecryptBlock decrypts one 64-bit block.
func (c *Cipher80) DecryptBlock(ct uint64) uint64 {
	s := ct ^ c.rk[Rounds]
	for r := Rounds - 1; r >= 0; r-- {
		s = InvRound(s, c.rk[r])
	}
	return s
}

// Encrypt encrypts an 8-byte block (big-endian).
func (c *Cipher80) Encrypt(dst, src []byte) {
	binary.BigEndian.PutUint64(dst, c.EncryptBlock(binary.BigEndian.Uint64(src)))
}

// Decrypt decrypts an 8-byte block.
func (c *Cipher80) Decrypt(dst, src []byte) {
	binary.BigEndian.PutUint64(dst, c.DecryptBlock(binary.BigEndian.Uint64(src)))
}

// RoundKeys returns all 32 round keys.
func (c *Cipher80) RoundKeys() []uint64 {
	out := make([]uint64, Rounds+1)
	copy(out, c.rk[:])
	return out
}

// SBoxInputs returns, for each of the 31 S-box layers, the index state —
// the XOR of the round input with the round key (PRESENT's key-first
// ordering). The nibbles of element r-1 are round r's table indices.
func (c *Cipher80) SBoxInputs(pt uint64) []uint64 {
	return c.SBoxInputsAppend(make([]uint64, 0, Rounds), pt, Rounds)
}

// SBoxInputsAppend appends the first n index states of SBoxInputs to
// dst (grown as needed) and returns the extended slice; n is clamped to
// the round count. The trace oracle reuses one buffer across
// encryptions. n states take n−1 S-box layers: the layer after the
// last reported state is never computed.
func (c *Cipher80) SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64 {
	if n > Rounds {
		n = Rounds
	}
	if n <= 0 {
		return dst
	}
	x := pt ^ c.rk[0]
	dst = append(dst, x)
	for r := 1; r < n; r++ {
		x = PermBits(SubCells(x)) ^ c.rk[r]
		dst = append(dst, x)
	}
	return dst
}

// PartialDecrypt inverts rounds n..1 (not the final whitening).
//
//grinch:secret rks
func PartialDecrypt(s uint64, rks []uint64, n int) uint64 {
	for r := n - 1; r >= 0; r-- {
		s = InvRound(s, rks[r])
	}
	return s
}

// Cipher128 is PRESENT-128.
type Cipher128 struct {
	rk [Rounds + 1]uint64 //grinch:secret
}

// NewCipher128 expands a 16-byte key (big-endian, k127 first).
//
//grinch:secret key
func NewCipher128(key [16]byte) *Cipher128 {
	reg := bitutil.Word128FromBytes(key)
	c := &Cipher128{}
	for r := 0; r <= Rounds; r++ {
		c.rk[r] = reg.Hi // round key = bits 127..64
		reg = updateKey128(reg, uint64(r+1))
	}
	return c
}

// updateKey128 is the PRESENT-128 key schedule step: rotate left 61,
// S-box the top two nibbles, XOR the counter into bits 66..62.
//
//grinch:secret k return
func updateKey128(k bitutil.Word128, counter uint64) bitutil.Word128 {
	// Rotate left 61 over 128 bits.
	n := bitutil.Word128{Lo: k.Lo<<61 | k.Hi>>3, Hi: k.Hi<<61 | k.Lo>>3}
	// S-box on bits 127..124 and 123..120.
	top := uint8(n.Hi >> 60)
	next := uint8(n.Hi >> 56 & 0xf)
	n.Hi = n.Hi&0x00ff_ffff_ffff_ffff |
		uint64(SBox[top])<<60 | uint64(SBox[next])<<56
	// Counter into bits 66..62.
	n.Hi ^= (counter & 0x1f) >> 2 // bits 66..64 get counter bits 4..2
	n.Lo ^= (counter & 0x3) << 62 // bits 63..62 get counter bits 1..0
	return n
}

// BlockSize returns the PRESENT block size in bytes.
func (c *Cipher128) BlockSize() int { return 8 }

// EncryptBlock encrypts one 64-bit block.
func (c *Cipher128) EncryptBlock(pt uint64) uint64 {
	s := pt
	for r := 0; r < Rounds; r++ {
		s = Round(s, c.rk[r])
	}
	return s ^ c.rk[Rounds]
}

// DecryptBlock decrypts one 64-bit block.
func (c *Cipher128) DecryptBlock(ct uint64) uint64 {
	s := ct ^ c.rk[Rounds]
	for r := Rounds - 1; r >= 0; r-- {
		s = InvRound(s, c.rk[r])
	}
	return s
}

// RoundKeys returns all 32 round keys.
func (c *Cipher128) RoundKeys() []uint64 {
	out := make([]uint64, Rounds+1)
	copy(out, c.rk[:])
	return out
}

// SBoxInputs mirrors Cipher80.SBoxInputs.
func (c *Cipher128) SBoxInputs(pt uint64) []uint64 {
	return c.SBoxInputsAppend(make([]uint64, 0, Rounds), pt, Rounds)
}

// SBoxInputsAppend mirrors Cipher80.SBoxInputsAppend.
func (c *Cipher128) SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64 {
	x := pt
	for r := 0; r < min(n, Rounds); r++ {
		if r > 0 {
			x = PermBits(SubCells(x))
		}
		x ^= c.rk[r]
		dst = append(dst, x)
	}
	return dst
}

// RecoverKey80 inverts the PRESENT-80 key schedule from the first two
// round keys: K2 is the top 64 bits of the once-updated register, so
// undoing the counter XOR, the S-box and the rotation — combined with
// the 64 bits K1 exposes directly — reconstructs all 80 key bits. This
// is the final step of the GRINCH-P attack.
func RecoverKey80(k1, k2 uint64) [10]byte {
	// Register after one update: bits 79..16 = k2; bits 15..0 unknown
	// so far. Undo counter (round 1) on bits 19..15: bits 19..16 live
	// in k2's low bits.
	post := key80{hi: uint16(k2 >> 48), lo: k2 << 16}
	post.lo ^= (1 & 0x1f) << 15 // counter = 1; bit 15 unknown anyway
	// Undo S-box on top nibble.
	post.hi = post.hi&0x0fff | uint16(InvSBox[post.hi>>12])<<12
	// Undo rotate-left-61: original bit i = post bit (i+61) mod 80.
	bit := func(k key80, i uint) uint64 {
		if i < 64 {
			return k.lo >> i & 1
		}
		return uint64(k.hi) >> (i - 64) & 1
	}
	var orig key80
	for i := uint(0); i < 80; i++ {
		b := bit(post, (i+61)%80)
		if i < 64 {
			orig.lo |= b << i
		} else {
			orig.hi |= uint16(b) << (i - 64)
		}
	}
	// post bits 15..0 were unknown → they map to original bits
	// (i+61)%80 ∈ 15..0 ⇒ i ∈ 19..4 … recover those from K1 instead:
	// K1 = original bits 79..16.
	orig.hi = uint16(k1 >> 48)
	orig.lo = orig.lo&0xffff | k1<<16
	var out [10]byte
	binary.BigEndian.PutUint16(out[:2], orig.hi)
	binary.BigEndian.PutUint64(out[2:], orig.lo)
	return out
}
