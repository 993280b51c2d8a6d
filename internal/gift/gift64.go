package gift

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"grinch/internal/bitutil"
)

// RoundKey64 is the key material mixed into the state at the end of one
// GIFT-64 round: two 16-bit words U and V plus the 6-bit round constant.
// Bit u_i is XORed into state bit 4i+1 and bit v_i into state bit 4i.
type RoundKey64 struct {
	U, V  uint16
	Const uint8
}

// Cipher64 is a GIFT-64 instance with an expanded key schedule. It
// implements the same Encrypt/Decrypt/BlockSize contract as
// crypto/cipher.Block (8-byte blocks).
type Cipher64 struct {
	rk [Rounds64]RoundKey64 //grinch:secret
	// rkm caches spreadKeyBits64 of each round key: the expansion is a
	// pure function of the fixed schedule, and the trace hot paths
	// apply it once per round per encryption.
	rkm [Rounds64]uint64 //grinch:secret
}

// NewCipher64 expands a 128-bit key (big-endian byte order, as in the
// official test vectors) into a GIFT-64 cipher.
//
//grinch:secret key
func NewCipher64(key [16]byte) *Cipher64 {
	return NewCipher64FromWord(bitutil.Word128FromBytes(key))
}

// NewCipher64FromWord expands a key given as a 128-bit word (limb k0 at
// bits 0..15, k7 at bits 112..127).
//
//grinch:secret key
func NewCipher64FromWord(key bitutil.Word128) *Cipher64 {
	c := &Cipher64{}
	ks := ExpandKey64(key)
	copy(c.rk[:], ks)
	for r := 0; r < Rounds64; r++ {
		c.rkm[r] = spreadKeyBits64(c.rk[r])
	}
	return c
}

// BlockSize returns the GIFT-64 block size in bytes.
func (c *Cipher64) BlockSize() int { return 8 }

// Encrypt encrypts the 8-byte block src into dst (big-endian blocks).
// dst and src may overlap. It panics if either slice is shorter than 8
// bytes, matching crypto/cipher.Block semantics.
func (c *Cipher64) Encrypt(dst, src []byte) {
	pt := binary.BigEndian.Uint64(src)
	binary.BigEndian.PutUint64(dst, c.EncryptBlock(pt))
}

// Decrypt decrypts the 8-byte block src into dst (big-endian blocks).
func (c *Cipher64) Decrypt(dst, src []byte) {
	ct := binary.BigEndian.Uint64(src)
	binary.BigEndian.PutUint64(dst, c.DecryptBlock(ct))
}

// EncryptBlock encrypts one 64-bit block in the natural b63..b0 order.
func (c *Cipher64) EncryptBlock(pt uint64) uint64 {
	s := pt
	for r := 0; r < Rounds64; r++ {
		s = PermBits64(SubCells64(s)) ^ c.rkm[r]
	}
	return s
}

// DecryptBlock decrypts one 64-bit block.
func (c *Cipher64) DecryptBlock(ct uint64) uint64 {
	s := ct
	for r := Rounds64 - 1; r >= 0; r-- {
		s = InvRound64(s, c.rk[r])
	}
	return s
}

// RoundKeys returns the expanded round keys. The attack uses round key r
// to relate round-(r+2) S-box indices to key bits.
func (c *Cipher64) RoundKeys() []RoundKey64 {
	out := make([]RoundKey64, Rounds64)
	copy(out, c.rk[:])
	return out
}

// ExpandKey64 runs the GIFT key schedule for GIFT-64: round r uses
// U = k1, V = k0 of the current key state, after which the state rotates
// k7‖…‖k0 ← (k1 ⋙ 2)‖(k0 ⋙ 12)‖k7‖…‖k2.
//
//grinch:secret key return
func ExpandKey64(key bitutil.Word128) []RoundKey64 {
	rks := make([]RoundKey64, Rounds64)
	ks := key
	for r := 0; r < Rounds64; r++ {
		rks[r] = RoundKey64{
			U:     ks.Word16(1),
			V:     ks.Word16(0),
			Const: RoundConstants[r],
		}
		ks = UpdateKeyState(ks)
	}
	return rks
}

// UpdateKeyState applies one step of the GIFT key-state rotation, shared
// by GIFT-64 and GIFT-128 (the variants differ only in which limbs each
// round extracts).
//
//grinch:secret ks return
func UpdateKeyState(ks bitutil.Word128) bitutil.Word128 {
	var next bitutil.Word128
	next = next.SetWord16(7, bitutil.RotR16(ks.Word16(1), 2))
	next = next.SetWord16(6, bitutil.RotR16(ks.Word16(0), 12))
	for i := uint(0); i < 6; i++ {
		next = next.SetWord16(i, ks.Word16(i+2))
	}
	return next
}

// SubCells64 applies the S-box to all 16 segments. From round 2 on the
// state is key-XORed, so the table indices are secret-dependent — this
// is the memory-access leak the GRINCH attack observes.
//
//grinch:secret s
func SubCells64(s uint64) uint64 {
	var out uint64
	for i := uint(0); i < Segments64; i++ {
		out |= uint64(SBox[(s>>(4*i))&0xf]) << (4 * i)
	}
	return out
}

// InvSubCells64 applies the inverse S-box to all 16 segments.
//
//grinch:secret s
func InvSubCells64(s uint64) uint64 {
	var out uint64
	for i := uint(0); i < Segments64; i++ {
		out |= uint64(InvSBox[(s>>(4*i))&0xf]) << (4 * i)
	}
	return out
}

// PermBits64 applies the GIFT-64 bit permutation. Writing bit i as
// 16a+4b+c, P64 sends it to 16((c−b) mod 4)+4a+c, since 3b ≡ −b
// (mod 4). That is two branch-free steps with constant masks: transpose
// the nibble matrix (16a+4b+c → 16b+4a+c), then reflect the 16-bit
// rows of each slice c (the bits with i mod 4 = c), row r → c−r.
//
//grinch:secret s
func PermBits64(s uint64) uint64 {
	return reflectRows64(transposeNibbles(s))
}

// InvPermBits64 applies the inverse bit permutation. Both steps of
// PermBits64 are involutions, so it runs them in reverse order.
//
//grinch:secret s
func InvPermBits64(s uint64) uint64 {
	return transposeNibbles(reflectRows64(s))
}

// transposeNibbles transposes the 4×4 matrix of nibbles in x, moving
// segment 4a+b to segment 4b+a: two delta swaps exchange index bits
// 2↔4 and 3↔5. It is an involution.
//
//grinch:secret x
func transposeNibbles(x uint64) uint64 {
	x = bitutil.DeltaSwap(x, 0x0000f0f00000f0f0, 12)
	return bitutil.DeltaSwap(x, 0x00000000ff00ff00, 24)
}

// reflectRows64 moves each bit of slice c from 16-bit row r to row
// (c−r) mod 4: negating the row (swapping rows 1 and 3) and rotating
// slice c left by 16c, fused into four masked rotates, one per net
// rotation. It is an involution.
//
//grinch:secret x
func reflectRows64(x uint64) uint64 {
	return x&0x4444111144441111 | bits.RotateLeft64(x&0x8888222288882222, 16) |
		bits.RotateLeft64(x&0x1111444411114444, 32) | bits.RotateLeft64(x&0x2222888822228888, 48)
}

// AddRoundKey64 XORs the round key and round constant into the state:
// u_i into bit 4i+1, v_i into bit 4i, the fixed 1 into bit 63 and the
// constant bits c5..c0 into bits 23, 19, 15, 11, 7, 3.
//
//grinch:secret rk return
func AddRoundKey64(s uint64, rk RoundKey64) uint64 {
	s ^= spreadKeyBits64(rk)
	return s
}

// spreadKeyBits64 expands a round key into the 64-bit XOR mask applied by
// AddRoundKey64. Because XOR is an involution the same mask also removes
// the round key during decryption.
//
//grinch:secret rk return
func spreadKeyBits64(rk RoundKey64) uint64 {
	return spread4(rk.U)<<1 | spread4(rk.V) | spread4(uint16(rk.Const&0x3f))<<3 | 1<<63
}

// spread4 moves bit i of v to bit 4i, clearing the bits in between:
// four shift-and-mask steps halve the distance between bit groups, with
// no branch or per-bit loop on the (secret) key bits.
//
//grinch:secret v return
func spread4(v uint16) uint64 {
	x := uint64(v)
	x = (x | x<<24) & 0x000000ff000000ff
	x = (x | x<<12) & 0x000f000f000f000f
	x = (x | x<<6) & 0x0303030303030303
	x = (x | x<<3) & 0x1111111111111111
	return x
}

// Round64 applies one full GIFT-64 round: SubCells, PermBits, AddRoundKey.
//
//grinch:secret s rk
func Round64(s uint64, rk RoundKey64) uint64 {
	return AddRoundKey64(PermBits64(SubCells64(s)), rk)
}

// InvRound64 inverts one GIFT-64 round.
//
//grinch:secret s rk
func InvRound64(s uint64, rk RoundKey64) uint64 {
	return InvSubCells64(InvPermBits64(AddRoundKey64(s, rk)))
}

// SBoxObserver receives every S-box table lookup performed by a traced
// encryption: the 1-based round number, the segment within the state and
// the 4-bit table index. This is the address stream a shared cache leaks.
type SBoxObserver interface {
	ObserveSBox(round, segment int, index uint8)
}

// ObserverFunc adapts a function to the SBoxObserver interface.
type ObserverFunc func(round, segment int, index uint8)

// ObserveSBox calls f.
func (f ObserverFunc) ObserveSBox(round, segment int, index uint8) {
	f(round, segment, index)
}

// EncryptTraced encrypts like EncryptBlock but reports every S-box lookup
// to obs in execution order (round 1 first, segment 0 first within a
// round), mirroring the lookup loop of the reference table-based C code.
func (c *Cipher64) EncryptTraced(pt uint64, obs SBoxObserver) uint64 {
	s := pt
	for r := 0; r < Rounds64; r++ {
		var sub uint64
		for i := uint(0); i < Segments64; i++ {
			idx := uint8((s >> (4 * i)) & 0xf)
			obs.ObserveSBox(r+1, int(i), idx)
			sub |= uint64(SBox[idx]) << (4 * i)
		}
		s = AddRoundKey64(PermBits64(sub), c.rk[r])
	}
	return s
}

// SBoxInputs returns, for each round r (1-based index r+1), the state at
// the input of that round's SubCells step — i.e. the 16 S-box indices of
// round r are the nibbles of element r-1. len(result) == Rounds64.
func (c *Cipher64) SBoxInputs(pt uint64) []uint64 {
	return c.SBoxInputsAppend(make([]uint64, 0, Rounds64), pt, Rounds64)
}

// SBoxInputsAppend appends the first n round states of SBoxInputs to dst
// (grown as needed) and returns the extended slice; n is clamped to the
// round count. The trace oracle reuses one buffer across encryptions,
// so its hot loop allocates nothing per encryption. n states take n−1
// rounds: the round after the last reported state is never computed.
// The oracle needs only the index values, so the rounds run the
// lookup-free S-box layer; EncryptTraced is the table path.
func (c *Cipher64) SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64 {
	if n > Rounds64 {
		n = Rounds64
	}
	if n <= 0 {
		return dst
	}
	s := pt
	dst = append(dst, s)
	for r := 1; r < n; r++ {
		s = PermBits64(SubCells64Bitsliced(s)) ^ c.rkm[r-1]
		dst = append(dst, s)
	}
	return dst
}

// PartialEncrypt64 applies rounds 1..n of the cipher (n=0 returns pt
// unchanged). The attack uses it to compute intermediate states from
// already-recovered round keys, so it runs the lookup-free S-box layer:
// the attacker's own computation is not the victim's table.
//
//grinch:secret rks
func PartialEncrypt64(pt uint64, rks []RoundKey64, n int) uint64 {
	if n > len(rks) {
		panic(fmt.Sprintf("gift: partial encrypt over %d rounds with %d round keys", n, len(rks)))
	}
	s := pt
	for r := 0; r < n; r++ {
		s = AddRoundKey64(PermBits64(SubCells64Bitsliced(s)), rks[r])
	}
	return s
}

// PartialDecrypt64 inverts rounds n..1.
//
//grinch:secret rks
func PartialDecrypt64(ct uint64, rks []RoundKey64, n int) uint64 {
	if n > len(rks) {
		panic(fmt.Sprintf("gift: partial decrypt over %d rounds with %d round keys", n, len(rks)))
	}
	s := ct
	for r := n - 1; r >= 0; r-- {
		s = InvSubCells64Bitsliced(InvPermBits64(AddRoundKey64(s, rks[r])))
	}
	return s
}
