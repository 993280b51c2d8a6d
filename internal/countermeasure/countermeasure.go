// Package countermeasure implements the two protections the GRINCH
// paper proposes (§IV-C) and the machinery to demonstrate that they
// defeat the attack:
//
//  1. S-box reshaping: the 16×4-bit table is repacked into 8 rows of 8
//     bits so that, with an 8-byte cache line, the entire table lives in
//     a single line — the probe then carries no index information at
//     all. ("set the cache line to 8 bytes and reshape the S-Box from 16
//     rows of 4 bits to 8 rows of 8 bits")
//
//  2. Key-schedule whitening: the sub-keys of the early rounds are
//     masked with key material "that was not used yet", so the round
//     keys GRINCH recovers no longer equal master-key bits and the
//     128-bit key cannot be reassembled from four round keys.
package countermeasure

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
)

// ReshapedTable is the paper's first countermeasure: entries 2i and
// 2i+1 packed into byte i (low nibble = even entry), 8 bytes total.
type ReshapedTable [8]uint8

// NewReshapedTable packs the GIFT S-box.
func NewReshapedTable() ReshapedTable {
	var t ReshapedTable
	for i := 0; i < 8; i++ {
		t[i] = gift.SBox[2*i] | gift.SBox[2*i+1]<<4
	}
	return t
}

// Lookup substitutes one segment through the packed table, selecting
// the right nibble of the fetched byte (the paper's noted overhead).
func (t ReshapedTable) Lookup(x uint8) uint8 {
	b := t[x>>1]
	if x&1 == 1 {
		return b >> 4
	}
	return b & 0xf
}

// Row returns which table row (= byte address offset) the lookup for x
// touches; with an 8-byte cache line every row shares line 0.
func (t ReshapedTable) Row(x uint8) int { return int(x >> 1) }

// Layout returns the memory layout of the reshaped table: 8 one-byte
// rows. Placed line-aligned on a platform with 8-byte cache lines, it
// spans exactly one line.
func Layout(base uint64) probe.TableLayout {
	return probe.TableLayout{Base: base, EntryBytes: 1, Entries: 8}
}

// HardenedCipher64 is GIFT-64 implemented over the reshaped table. Its
// ciphertexts are identical to the reference cipher; only the memory
// footprint of SubCells changes.
type HardenedCipher64 struct {
	inner *gift.Cipher64
	table ReshapedTable
}

// NewHardenedCipher64 builds the reshaped-table cipher.
func NewHardenedCipher64(key bitutil.Word128) *HardenedCipher64 {
	return &HardenedCipher64{
		inner: gift.NewCipher64FromWord(key),
		table: NewReshapedTable(),
	}
}

// EncryptBlock encrypts one block using packed-table lookups.
func (c *HardenedCipher64) EncryptBlock(pt uint64) uint64 {
	s := pt
	for _, rk := range c.inner.RoundKeys() {
		var sub uint64
		for i := uint(0); i < gift.Segments64; i++ {
			sub |= uint64(c.table.Lookup(uint8(s>>(4*i)&0xf))) << (4 * i)
		}
		s = gift.AddRoundKey64(gift.PermBits64(sub), rk)
	}
	return s
}

// EncryptTracedRows encrypts while reporting the table ROW of every
// lookup — the most an attacker can resolve. With the whole table in
// one cache line, even these rows collapse to a single observable line.
func (c *HardenedCipher64) EncryptTracedRows(pt uint64, observe func(round, segment, row int)) uint64 {
	s := pt
	for r, rk := range c.inner.RoundKeys() {
		var sub uint64
		for i := uint(0); i < gift.Segments64; i++ {
			x := uint8(s >> (4 * i) & 0xf)
			observe(r+1, int(i), c.table.Row(x))
			sub |= uint64(c.table.Lookup(x)) << (4 * i)
		}
		s = gift.AddRoundKey64(gift.PermBits64(sub), rk)
	}
	return s
}

// whiten mixes a 16-bit limb nonlinearly through the GIFT S-box (a
// cheap, in-spirit realization of "applying some computation with bits
// that were not used yet"). It is a bijection on 16-bit words.
func whiten(x uint16) uint16 {
	var out uint16
	for i := uint(0); i < 4; i++ {
		out |= uint16(gift.SBox[(x>>(4*i))&0xf]) << (4 * i)
	}
	return bitutil.RotR16(out, 7)
}

// WhitenedExpandKey64 is the paper's second countermeasure: round t's
// sub-key words are XOR-masked with a whitened image of key limbs that
// round has not consumed yet (the limbs four rounds ahead in the
// rotation). The cipher stays a valid 128-bit-key block cipher, but the
// words GRINCH recovers are U⊕f(k_a), V⊕f(k_b) — no longer master-key
// bits, so the four recovered round keys cannot be reassembled into the
// key, and crafting inputs for round t+1 no longer reveals fresh
// material.
func WhitenedExpandKey64(key bitutil.Word128) []gift.RoundKey64 {
	rks := make([]gift.RoundKey64, gift.Rounds64)
	ks := key
	for r := 0; r < gift.Rounds64; r++ {
		rks[r] = gift.RoundKey64{
			U:     ks.Word16(1) ^ whiten(ks.Word16(5)),
			V:     ks.Word16(0) ^ whiten(ks.Word16(4)),
			Const: gift.RoundConstants[r],
		}
		ks = gift.UpdateKeyState(ks)
	}
	return rks
}

// WhitenedCipher64 is GIFT-64 with the whitened key schedule.
type WhitenedCipher64 struct {
	rks []gift.RoundKey64
}

// NewWhitenedCipher64 expands a key with the whitened schedule.
func NewWhitenedCipher64(key bitutil.Word128) *WhitenedCipher64 {
	return &WhitenedCipher64{rks: WhitenedExpandKey64(key)}
}

// EncryptBlock encrypts one block.
func (c *WhitenedCipher64) EncryptBlock(pt uint64) uint64 {
	s := pt
	for _, rk := range c.rks {
		s = gift.Round64(s, rk)
	}
	return s
}

// DecryptBlock decrypts one block.
func (c *WhitenedCipher64) DecryptBlock(ct uint64) uint64 {
	s := ct
	for r := len(c.rks) - 1; r >= 0; r-- {
		s = gift.InvRound64(s, c.rks[r])
	}
	return s
}

// RoundKeys exposes the whitened schedule (tests and the demonstration
// oracle need it).
func (c *WhitenedCipher64) RoundKeys() []gift.RoundKey64 {
	out := make([]gift.RoundKey64, len(c.rks))
	copy(out, c.rks)
	return out
}

// SBoxInputs mirrors gift.Cipher64.SBoxInputs for the whitened cipher.
func (c *WhitenedCipher64) SBoxInputs(pt uint64) []uint64 {
	return c.SBoxInputsAppend(make([]uint64, 0, len(c.rks)), pt, len(c.rks))
}

// SBoxInputsAppend mirrors gift.Cipher64.SBoxInputsAppend: it appends
// the first n round states (n clamped to the round count) to dst, so
// the whitened cipher is an oracle.Victim.
func (c *WhitenedCipher64) SBoxInputsAppend(dst []uint64, pt uint64, n int) []uint64 {
	s := pt
	for r := 0; r < min(n, len(c.rks)); r++ {
		if r > 0 {
			s = gift.Round64(s, c.rks[r-1])
		}
		dst = append(dst, s)
	}
	return dst
}
