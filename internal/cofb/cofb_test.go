package cofb

import (
	"bytes"
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/rng"
)

var testKey = [16]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

func nonceFrom(r *rng.Source) [NonceSize]byte {
	var n [NonceSize]byte
	for i := range n {
		n[i] = byte(r.Uint64())
	}
	return n
}

func TestSealOpenRoundTripShapes(t *testing.T) {
	a := New(testKey)
	r := rng.New(1)
	shapes := []struct{ ptLen, adLen int }{
		{0, 0}, {1, 0}, {0, 1}, {15, 0}, {16, 0}, {17, 0},
		{31, 7}, {32, 16}, {33, 17}, {64, 64}, {100, 3}, {5, 100},
	}
	for _, sh := range shapes {
		pt := make([]byte, sh.ptLen)
		ad := make([]byte, sh.adLen)
		for i := range pt {
			pt[i] = byte(r.Uint64())
		}
		for i := range ad {
			ad[i] = byte(r.Uint64())
		}
		nonce := nonceFrom(r)
		ct := a.Seal(nil, nonce, pt, ad)
		if len(ct) != sh.ptLen+TagSize {
			t.Fatalf("pt=%d ad=%d: ciphertext length %d", sh.ptLen, sh.adLen, len(ct))
		}
		got, err := a.Open(nil, nonce, ct, ad)
		if err != nil {
			t.Fatalf("pt=%d ad=%d: Open failed: %v", sh.ptLen, sh.adLen, err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("pt=%d ad=%d: round-trip mismatch", sh.ptLen, sh.adLen)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	a := New(testKey)
	f := func(pt, ad []byte, seed uint64) bool {
		nonce := nonceFrom(rng.New(seed))
		ct := a.Seal(nil, nonce, pt, ad)
		got, err := a.Open(nil, nonce, ct, ad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTamperDetection(t *testing.T) {
	a := New(testKey)
	r := rng.New(2)
	nonce := nonceFrom(r)
	pt := []byte("attack at dawn: sector 7, code 42")
	ad := []byte("header-v1")
	ct := a.Seal(nil, nonce, pt, ad)
	for i := range ct {
		mutated := append([]byte(nil), ct...)
		mutated[i] ^= 0x01
		if _, err := a.Open(nil, nonce, mutated, ad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestADTamperDetection(t *testing.T) {
	a := New(testKey)
	r := rng.New(3)
	nonce := nonceFrom(r)
	ct := a.Seal(nil, nonce, []byte("payload"), []byte("context"))
	if _, err := a.Open(nil, nonce, ct, []byte("Context")); err == nil {
		t.Fatal("modified AD accepted")
	}
	if _, err := a.Open(nil, nonce, ct, nil); err == nil {
		t.Fatal("dropped AD accepted")
	}
}

func TestWrongNonceRejected(t *testing.T) {
	a := New(testKey)
	r := rng.New(4)
	n1, n2 := nonceFrom(r), nonceFrom(r)
	ct := a.Seal(nil, n1, []byte("msg"), nil)
	if _, err := a.Open(nil, n2, ct, nil); err == nil {
		t.Fatal("wrong nonce accepted")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	a := New(testKey)
	other := testKey
	other[0] ^= 1
	b := New(other)
	r := rng.New(5)
	nonce := nonceFrom(r)
	ct := a.Seal(nil, nonce, []byte("msg"), nil)
	if _, err := b.Open(nil, nonce, ct, nil); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestShortCiphertextRejected(t *testing.T) {
	a := New(testKey)
	var nonce [NonceSize]byte
	if _, err := a.Open(nil, nonce, make([]byte, TagSize-1), nil); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestCiphertextsDifferAcrossNonces(t *testing.T) {
	a := New(testKey)
	r := rng.New(6)
	pt := make([]byte, 32)
	c1 := a.Seal(nil, nonceFrom(r), pt, nil)
	c2 := a.Seal(nil, nonceFrom(r), pt, nil)
	if bytes.Equal(c1[:32], c2[:32]) {
		t.Fatal("identical ciphertexts under different nonces")
	}
}

func TestDeterministicUnderSameInputs(t *testing.T) {
	a := New(testKey)
	var nonce [NonceSize]byte
	pt, ad := []byte("hello"), []byte("ad")
	if !bytes.Equal(a.Seal(nil, nonce, pt, ad), a.Seal(nil, nonce, pt, ad)) {
		t.Fatal("Seal not deterministic")
	}
}

// TestNonceIsEncryptedFirst pins the property the GRINCH AEAD attack
// exploits: Y₀ = E_K(N), so chosen nonces are chosen block-cipher
// plaintexts, and the first 16 S-box lookups of every Seal are the
// GIFT-128 round-1 accesses for N.
func TestNonceIsEncryptedFirst(t *testing.T) {
	a := New(testKey)
	c := gift.NewCipher128(testKey)
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		nonce := nonceFrom(r)
		y0 := c.EncryptBlock(bitutil.Word128FromBytes(nonce))
		// An empty-everything Seal's tag is a deterministic function of
		// Y₀ alone; two nonces with equal Y₀ would collide. Sanity-check
		// the relation by recomputing the tag from Y₀ by hand.
		got := a.Seal(nil, nonce, nil, nil)
		delta := triple(triple(y0.Hi))
		x := xorMask(g(y0), delta)
		x.Hi ^= 0x8000000000000000
		want := c.EncryptBlock(x).Bytes()
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("tag does not follow the documented Y₀ chain")
		}
	}
}

func TestDoubleTripleProperties(t *testing.T) {
	// Doubling is injective (it is multiplication by x in a field) and
	// 3·Δ = 2·Δ ⊕ Δ never equals 2·Δ for nonzero Δ.
	seen := map[uint64]bool{}
	d := uint64(1)
	for i := 0; i < 64; i++ {
		if seen[d] {
			t.Fatalf("doubling cycle after %d steps", i)
		}
		seen[d] = true
		if triple(d) == double(d) {
			t.Fatal("triple == double for nonzero mask")
		}
		d = double(d)
	}
}

func TestGFunction(t *testing.T) {
	y := bitutil.Word128{Hi: 0x8000000000000001, Lo: 0x1234567890abcdef}
	got := g(y)
	if got.Hi != y.Lo {
		t.Fatal("G must move Y₂ into the left half")
	}
	if got.Lo != y.Hi<<1|1 {
		t.Fatal("G must rotate Y₁ left by one")
	}
}

func TestSealAppendsToDst(t *testing.T) {
	a := New(testKey)
	var nonce [NonceSize]byte
	prefix := []byte{0xAA, 0xBB}
	out := a.Seal(prefix, nonce, []byte("x"), nil)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("Seal clobbered dst prefix")
	}
}
