package gift

import "grinch/internal/bitutil"

// This file contains the block-parallel bitsliced GIFT-64 kernel behind
// the batched attack pipeline. Where bitsliced.go runs the S-box circuit
// nibble-sliced inside one packed state, the Batch64 kernel slices 64
// whole states across each other: word b of a Batch64 carries state bit
// b of all 64 blocks, so one boolean instruction advances all 64
// encryptions by one gate. The S-box layer calls the same sboxPlanes,
// the permutation is a free plane reindexing, and AddRoundKey
// broadcasts each key-mask bit branchlessly — like the within-block
// variant, no secret-indexed access or secret branch exists anywhere in
// the kernel, which the grinchvet leakage pass verifies.

// Batch64 holds 64 GIFT-64 states bitsliced across blocks: bit j of
// word b is state bit b of block j. Load pivots the natural
// one-word-per-block layout into this one via the 64×64 bit transpose.
type Batch64 [64]uint64

// Load fills the batch from 64 states in one-word-per-block layout.
//
//grinch:secret blocks
func (b *Batch64) Load(blocks *[64]uint64) {
	*b = Batch64(*blocks)
	bitutil.Transpose64((*[64]uint64)(b))
}

// SubCells applies the GIFT S-box to every segment of every block:
// sboxPlanes evaluated once per segment at 64-lane width. Planes
// 4i..4i+3 are the four index bits of segment i across all blocks.
//
//grinch:secret
func (b *Batch64) SubCells() {
	for i := 0; i < 64; i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = sboxPlanes(b[i], b[i+1], b[i+2], b[i+3])
	}
}

// PermBits applies the GIFT-64 bit permutation: in the bitsliced layout
// a bit permutation is a plane reindexing, free of per-bit extraction.
func (b *Batch64) PermBits() {
	tmp := *b
	for i, p := range Perm64 {
		b[p] = tmp[i]
	}
}

// AddRoundKey XORs the round key, fixed bit and round constant into
// every block: each bit of the spread key mask is broadcast to a full
// 64-lane word arithmetically (0 → 0, 1 → all ones), never branched on.
//
//grinch:secret rk
func (b *Batch64) AddRoundKey(rk RoundKey64) {
	b.addRoundKeyMask(spreadKeyBits64(rk))
}

// addRoundKeyMask XORs an already-spread key mask into every block;
// Cipher64 callers pass the cached per-round expansion. The loop runs
// a fixed 64 broadcasts regardless of the mask's weight — iterating
// only set bits would be faster but would make the trip count (and so
// the timing) a function of the secret key.
//
//grinch:secret m
func (b *Batch64) addRoundKeyMask(m uint64) {
	for i := 0; i < 64; i += 4 {
		b[i] ^= -(m >> uint(i) & 1)
		b[i+1] ^= -(m >> uint(i+1) & 1)
		b[i+2] ^= -(m >> uint(i+2) & 1)
		b[i+3] ^= -(m >> uint(i+3) & 1)
	}
}

// Round applies one full GIFT-64 round to all 64 blocks.
//
//grinch:secret rk
func (b *Batch64) Round(rk RoundKey64) {
	b.SubCells()
	b.PermBits()
	b.AddRoundKey(rk)
}

// subCellsPermKeyInto applies one full round — S-box circuit, bit
// permutation, spread key mask — in a single pass into out: each
// segment's four output planes are written straight to their permuted
// positions with the key bit folded in, instead of three separate
// sweeps over the 64 words. The permutation indices come from the
// public Perm64 table and the key broadcast stays arithmetic, so the
// fused pass keeps the kernel's no-secret-index, no-secret-branch,
// fixed-trip-count guarantees. out must not alias b.
//
//grinch:secret m
func (b *Batch64) subCellsPermKeyInto(out *Batch64, m uint64) {
	for i := 0; i < 64; i += 4 {
		q0, q1, q2, q3 := sboxPlanes(b[i], b[i+1], b[i+2], b[i+3])
		p0, p1, p2, p3 := Perm64[i], Perm64[i+1], Perm64[i+2], Perm64[i+3]
		out[p0] = q0 ^ -(m >> p0 & 1)
		out[p1] = q1 ^ -(m >> p1 & 1)
		out[p2] = q2 ^ -(m >> p2 & 1)
		out[p3] = q3 ^ -(m >> p3 & 1)
	}
}

// TraceBatch runs rounds 1..last of 64 encryptions bitsliced across
// blocks, calling visit once per round r in [first, last] with the
// bitsliced round-r S-box input state — the batched counterpart of
// SBoxInputsAppend for a whole lane group. st and st2 are
// caller-supplied scratch (their prior contents are overwritten; the
// fused round pass ping-pongs between them) so the hot path allocates
// nothing. The visited states are bit-identical to the corresponding
// SBoxInputsAppend elements; a window with first > last visits nothing,
// exactly like the scalar slice indexing. Like SBoxInputsAppend it
// stops at the round-last state: last states take last−1 rounds.
//
//grinch:secret pts
func (c *Cipher64) TraceBatch(pts *[64]uint64, first, last int, st, st2 *Batch64, visit func(round int, st *Batch64)) {
	if last > Rounds64 {
		last = Rounds64
	}
	cur, next := st, st2
	cur.Load(pts)
	for r := 1; r <= last; r++ {
		if r >= first {
			visit(r, cur)
		}
		if r == last {
			break
		}
		cur.subCellsPermKeyInto(next, c.rkm[r-1])
		cur, next = next, cur
	}
}
