// Package rng provides a small deterministic pseudo-random number
// generator used by every stochastic component in this repository
// (plaintext randomization, replacement policies, noise injection,
// experiment trials).
//
// A dedicated generator, rather than math/rand, guarantees that
// experiment outputs are bit-for-bit reproducible across Go releases:
// the sequence is fixed by this package, not by the standard library's
// unspecified algorithm. The generator is xoshiro256**, seeded through
// SplitMix64 as its authors recommend.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
//
// The four state words are separate fields rather than a [4]uint64:
// the compiler's SSA pass decomposes struct fields into registers but
// never arrays, and the crafting hot loop runs 16 inlined draws on a
// local copy — scalar fields keep that whole run register-resident.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from the given seed. Two Sources built
// from equal seeds produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state from seed using SplitMix64, so that
// even adjacent seeds yield uncorrelated streams.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// xoshiro256** requires a not-all-zero state; SplitMix64 cannot emit
	// four zeros in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 pseudo-random bits. The rotates go
// through math/bits so the compiler lowers them to single instructions
// and the whole step stays cheap enough to inline into the crafting
// hot loop (16 draws per crafted plaintext).
func (r *Source) Uint64() uint64 {
	t := r.s1
	r.s2 ^= r.s0
	r.s3 ^= t
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t << 17
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return bits.RotateLeft64(t*5, 7) * 9
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	v := r.Uint64()
	if un&(un-1) == 0 {
		// Power-of-two bound: Lemire's method degenerates to taking the
		// top log2(n) bits — the rejection threshold (2^64 - n) mod n is
		// zero, so exactly one draw is consumed and the value equals the
		// high half of v·n. Same stream, same result, no 128-bit
		// multiply (the crafting hot path draws Intn(8) four times per
		// plaintext).
		return int(v >> (64 - uint(bits.Len64(un)-1)))
	}
	// Lemire's multiply-shift rejection method for unbiased bounded
	// integers without division in the common case.
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// IntnPow2 returns the same value Intn(1<<k) would, consuming the same
// single draw, for 0 < k < 64. Intn's general body is too large for the
// compiler to inline; the crafting hot loop always draws from 8-entry
// lists, so this power-of-two special case keeps the whole draw inline.
func (r *Source) IntnPow2(k uint) int {
	return int(r.Uint64() >> (64 - k))
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t&mask + aLo*bHi
	hi = aHi*bHi + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Nibble returns a uniform 4-bit value, the unit of GIFT plaintext
// randomization.
func (r *Source) Nibble() uint64 {
	return r.Uint64() & 0xf
}

// Float64 returns a uniform float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Snapshot returns a copy of the generator's current state. Restoring
// it rewinds the stream exactly: after Restore, the Source replays the
// same draws it produced after the Snapshot. The batched attack
// pipeline uses this to un-consume speculatively crafted plaintexts —
// the number of Uint64 draws behind an Intn call is data-dependent
// (Lemire rejection), so positions can only be revisited by state
// capture, never by skip-ahead arithmetic.
func (r *Source) Snapshot() Source { return *r }

// Restore rewinds the generator to a previously captured Snapshot.
func (r *Source) Restore(s Source) { *r = s }

// Split returns a new Source whose stream is independent of r's: it is
// seeded from r's output, letting one experiment seed fan out into
// per-trial generators deterministically.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Derive maps a (root seed, index) pair to an independent member seed by
// running one SplitMix64 step over their combination. Unlike Split, the
// derivation is random-access: member i's seed does not depend on having
// drawn members 0..i-1, so a swept experiment can hand every grid cell
// its own generator in any order — or in parallel — and still reproduce
// the exact per-cell streams of a serial run.
func Derive(seed, index uint64) uint64 {
	z := seed + (index+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
