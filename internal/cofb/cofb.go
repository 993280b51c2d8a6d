// Package cofb implements the COFB (COmbined FeedBack) authenticated
// encryption mode over GIFT-128 — the construction of GIFT-COFB, the
// NIST lightweight-cryptography finalist that motivates the GRINCH
// paper's security analysis ("among the 32 candidates of the second
// competition round, 7 are based on GIFT cipher").
//
// Structure (Chakraborti et al., GIFT-COFB):
//
//	Y₀ = E_K(N)                       — the nonce is encrypted first
//	L  = ⌈Y₀⌉₆₄                       — top half seeds the mask chain
//	per block: X = G(Y) ⊕ M ⊕ (Δ‖0⁶⁴), C = Y ⊕ M, Y' = E_K(X)
//	G(Y₁‖Y₂) = Y₂ ‖ (Y₁ ⋘ 1)          — the combined feedback function
//	Δ chains by GF(2⁶⁴) doubling (×2 per block, ×3 at domain switches)
//	T  = Y_final
//
// No official test vectors are available offline, so correctness is
// established structurally: round-trip for all AD/plaintext shapes,
// tamper detection on every byte, nonce/key separation, mask-chain
// properties, and the exact Y₀ = E_K(N) relation the GRINCH extension
// exploits (an attacker who chooses nonces chooses the cipher's
// plaintexts — see examples/aead_attack).
package cofb

import (
	"crypto/subtle"
	"errors"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// TagSize is the authentication tag length in bytes.
const TagSize = 16

// NonceSize is the nonce length in bytes.
const NonceSize = 16

// ErrAuth is returned when a ciphertext fails authentication.
var ErrAuth = errors.New("cofb: message authentication failed")

// AEAD is a GIFT-COFB instance.
type AEAD struct {
	cipher *gift.Cipher128 //grinch:secret
}

// New builds an AEAD from a 128-bit key.
//
//grinch:secret key
func New(key [16]byte) *AEAD {
	return &AEAD{cipher: gift.NewCipher128(key)}
}

// NewFromWord builds an AEAD from a key word.
//
//grinch:secret key
func NewFromWord(key bitutil.Word128) *AEAD {
	return &AEAD{cipher: gift.NewCipher128FromWord(key)}
}

// block is a 128-bit state in big-endian halves (hi = leftmost bytes),
// matching the byte order of gift.Cipher128.
type block = bitutil.Word128

// g applies the combined feedback function G(Y₁‖Y₂) = Y₂‖(Y₁ ⋘ 1),
// where Y₁ is the leftmost (Hi) half.
//
//grinch:secret y return
func g(y block) block {
	return block{Hi: y.Lo, Lo: y.Hi<<1 | y.Hi>>63}
}

// double multiplies a 64-bit mask by x in GF(2⁶⁴) with the primitive
// polynomial x⁶⁴+x⁴+x³+x+1 (0x1b). The mask chain is derived from
// E_K(N), so the carry branch below is a secret-dependent branch — the
// classic GF-doubling timing leak grinchvet keeps on the books.
//
//grinch:secret d return
func double(d uint64) uint64 {
	carry := d >> 63
	d <<= 1
	if carry != 0 {
		d ^= 0x1b
	}
	return d
}

// triple returns 3·Δ = 2·Δ ⊕ Δ.
//
//grinch:secret d return
func triple(d uint64) uint64 { return double(d) ^ d }

// enc runs the block cipher. Its output is keyed material: everything
// downstream (feedback state, mask chain, tag) is secret-derived.
//
//grinch:secret return
func (a *AEAD) enc(x block) block { return a.cipher.EncryptBlock(x) }

// xorMask folds the 64-bit mask into the top half of a block (Δ‖0⁶⁴).
func xorMask(x block, delta uint64) block {
	x.Hi ^= delta
	return x
}

// loadBlock reads up to 16 bytes big-endian, 10*-padding short blocks.
func loadBlock(p []byte) (b block, full bool) {
	var buf [16]byte
	n := copy(buf[:], p)
	if n < 16 {
		buf[n] = 0x80
	}
	return bitutil.Word128FromBytes(buf), n == 16
}

// storeBlock writes the leftmost len(dst) bytes of b.
func storeBlock(dst []byte, b block) {
	buf := b.Bytes()
	copy(dst, buf[:])
}

// process absorbs data (AD or message) into the running state. For
// message processing, ct receives the keystream-combined output.
func (a *AEAD) process(y block, delta uint64, data []byte, ct []byte, lastChunk bool) (block, uint64) {
	if len(data) == 0 {
		// Empty input: one masked blank block with tripled mask.
		delta = triple(delta)
		if lastChunk {
			delta = triple(delta)
		}
		x := xorMask(g(y), delta)
		x.Hi ^= 0x8000000000000000 // 10* padding of the empty block
		return a.enc(x), delta
	}
	off := 0
	for off < len(data) {
		chunk := data[off:]
		if len(chunk) > 16 {
			chunk = chunk[:16]
		}
		m, full := loadBlock(chunk)
		last := off+16 >= len(data)
		if last {
			if full {
				delta = double(delta)
			} else {
				delta = triple(delta)
			}
			if lastChunk {
				delta = triple(delta)
			}
		} else {
			delta = double(delta)
		}
		if ct != nil {
			c := y.Xor(m)
			storeBlock(ct[off:min(off+16, len(ct))], c)
		}
		x := xorMask(g(y).Xor(m), delta)
		y = a.enc(x)
		off += 16
	}
	return y, delta
}

// Seal encrypts and authenticates plaintext with associated data,
// appending the ciphertext and 16-byte tag to dst.
func (a *AEAD) Seal(dst []byte, nonce [NonceSize]byte, plaintext, ad []byte) []byte {
	y := a.enc(bitutil.Word128FromBytes(nonce)) // Y₀ = E_K(N)
	delta := y.Hi                               // L = ⌈Y₀⌉₆₄

	y, delta = a.process(y, delta, ad, nil, len(plaintext) == 0)

	out := make([]byte, len(plaintext)+TagSize)
	if len(plaintext) > 0 {
		y, _ = a.process(y, delta, plaintext, out[:len(plaintext)], true)
	}
	tag := y.Bytes()
	copy(out[len(plaintext):], tag[:])
	return append(dst, out...)
}

// Open authenticates and decrypts. It returns ErrAuth (and no
// plaintext) on any mismatch.
func (a *AEAD) Open(dst []byte, nonce [NonceSize]byte, ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < TagSize {
		return nil, ErrAuth
	}
	body := ciphertext[:len(ciphertext)-TagSize]
	wantTag := ciphertext[len(ciphertext)-TagSize:]

	y := a.enc(bitutil.Word128FromBytes(nonce))
	delta := y.Hi
	y, delta = a.process(y, delta, ad, nil, len(body) == 0)

	pt := make([]byte, len(body))
	if len(body) > 0 {
		off := 0
		for off < len(body) {
			chunk := body[off:]
			if len(chunk) > 16 {
				chunk = chunk[:16]
			}
			// Recover the plaintext block: M = C ⊕ Y (truncated), with
			// 10* padding re-applied for the feedback path.
			var cbuf [16]byte
			n := copy(cbuf[:], chunk)
			c := bitutil.Word128FromBytes(cbuf)
			m := y.Xor(c)
			// Zero the bytes beyond the message and re-pad.
			mb := m.Bytes()
			for i := n; i < 16; i++ {
				mb[i] = 0
			}
			if n < 16 {
				mb[n] = 0x80
			}
			m = bitutil.Word128FromBytes(mb)
			storeBlock(pt[off:min(off+16, len(pt))], m)

			last := off+16 >= len(body)
			full := n == 16
			if last {
				if full {
					delta = double(delta)
				} else {
					delta = triple(delta)
				}
				delta = triple(delta)
			} else {
				delta = double(delta)
			}
			x := xorMask(g(y).Xor(m), delta)
			y = a.enc(x)
			off += 16
		}
	}
	tag := y.Bytes()
	// The tag check must branch on keyed data — that is its job. The
	// comparison itself is constant-time; only accept/reject escapes.
	//grinchvet:ignore secret-branch constant-time compare, only the verdict branches
	if subtle.ConstantTimeCompare(tag[:], wantTag) != 1 {
		return nil, ErrAuth
	}
	return append(dst, pt...), nil
}

// Overhead returns the tag size (crypto/cipher.AEAD-style accounting).
func (a *AEAD) Overhead() int { return TagSize }

// SBoxInputs exposes the per-round S-box input states of the mode's
// first block-cipher call, Y₀ = E_K(N) — the memory-access stream a
// co-resident attacker observes while Seal processes an
// attacker-chosen nonce. With SBoxInputsAppend it makes the AEAD an
// oracle.Victim, which is how the GRINCH extension attacks it: chosen
// nonces are chosen block-cipher plaintexts (see examples/aead_attack).
func (a *AEAD) SBoxInputs(nonce bitutil.Word128) []bitutil.Word128 {
	return a.cipher.SBoxInputs(nonce)
}

// SBoxInputsAppend appends the first n states of SBoxInputs to dst, the
// buffer-reusing, truncated form the trace oracle reads.
func (a *AEAD) SBoxInputsAppend(dst []bitutil.Word128, nonce bitutil.Word128, n int) []bitutil.Word128 {
	return a.cipher.SBoxInputsAppend(dst, nonce, n)
}
