package present

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
)

// Official PRESENT-80 test vectors from the CHES 2007 paper (Appendix I).
var present80KATs = []struct {
	key, pt, ct string
}{
	{"00000000000000000000", "0000000000000000", "5579c1387b228445"},
	{"ffffffffffffffffffff", "0000000000000000", "e72c46c0f5945049"},
	{"00000000000000000000", "ffffffffffffffff", "a112ffc72f68417b"},
	{"ffffffffffffffffffff", "ffffffffffffffff", "3333dcd3213210d2"},
}

func mustKey80(t *testing.T, s string) [10]byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 10 {
		t.Fatalf("bad key literal %q", s)
	}
	var k [10]byte
	copy(k[:], b)
	return k
}

func block(t *testing.T, s string) uint64 {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 8 {
		t.Fatalf("bad block literal %q", s)
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func TestPresent80KnownAnswers(t *testing.T) {
	for _, kat := range present80KATs {
		c := NewCipher80(mustKey80(t, kat.key))
		pt, want := block(t, kat.pt), block(t, kat.ct)
		if got := c.EncryptBlock(pt); got != want {
			t.Errorf("key %s: Encrypt(%s) = %016x, want %s", kat.key, kat.pt, got, kat.ct)
		}
		if got := c.DecryptBlock(want); got != pt {
			t.Errorf("key %s: Decrypt(%s) = %016x, want %s", kat.key, kat.ct, got, kat.pt)
		}
	}
}

func TestPresent80ByteInterface(t *testing.T) {
	kat := present80KATs[0]
	c := NewCipher80(mustKey80(t, kat.key))
	src, _ := hex.DecodeString(kat.pt)
	dst := make([]byte, 8)
	c.Encrypt(dst, src)
	if hex.EncodeToString(dst) != kat.ct {
		t.Fatalf("Encrypt bytes = %x", dst)
	}
	back := make([]byte, 8)
	c.Decrypt(back, dst)
	if hex.EncodeToString(back) != kat.pt {
		t.Fatalf("Decrypt bytes = %x", back)
	}
}

func TestPresent80RoundTripQuick(t *testing.T) {
	f := func(kLo uint64, kHi uint16, pt uint64) bool {
		var key [10]byte
		key[0] = byte(kHi >> 8)
		key[1] = byte(kHi)
		for i := 0; i < 8; i++ {
			key[2+i] = byte(kLo >> (56 - 8*i))
		}
		c := NewCipher80(key)
		return c.DecryptBlock(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPresent128RoundTripQuick(t *testing.T) {
	f := func(a, b, pt uint64) bool {
		var key [16]byte
		for i := 0; i < 8; i++ {
			key[i] = byte(a >> (56 - 8*i))
			key[8+i] = byte(b >> (56 - 8*i))
		}
		c := NewCipher128(key)
		return c.DecryptBlock(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsInverse(t *testing.T) {
	f := func(s uint64) bool {
		return InvPermBits(PermBits(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermFixedPoints(t *testing.T) {
	// P(0)=0 and P(63)=63 are the only guaranteed fixed points.
	if Perm[0] != 0 || Perm[63] != 63 {
		t.Fatalf("Perm endpoints wrong: %d, %d", Perm[0], Perm[63])
	}
	if Perm[1] != 16 || Perm[16] != 4 {
		t.Fatalf("Perm samples wrong: P(1)=%d P(16)=%d", Perm[1], Perm[16])
	}
}

func TestSBoxIsPermutation(t *testing.T) {
	var seen [16]bool
	for _, v := range SBox {
		if seen[v] {
			t.Fatalf("S-box value %#x repeated", v)
		}
		seen[v] = true
	}
}

// TestSBoxBranchNumberThree verifies the design property the GRINCH
// paper cites (§II): PRESENT's S-box satisfies branching number 3, the
// requirement GIFT relaxed to BN2.
func TestSBoxBranchNumberThree(t *testing.T) {
	popcount := func(x uint8) int {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return n
	}
	best := 8
	for a := uint8(1); a < 16; a++ {
		for d := uint8(1); d < 16; d++ {
			dout := SBox[a] ^ SBox[a^d]
			if dout == 0 {
				continue
			}
			if w := popcount(d) + popcount(dout); w < best {
				best = w
			}
		}
	}
	if best != 3 {
		t.Fatalf("PRESENT S-box branch number = %d, want 3", best)
	}
}

func TestRoundInverse(t *testing.T) {
	f := func(s, rk uint64) bool {
		return InvRound(Round(s, rk), rk) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSBoxInputsConsistent(t *testing.T) {
	c := NewCipher80(mustKey80(t, present80KATs[1].key))
	pt := uint64(0x0123456789abcdef)
	states := c.SBoxInputs(pt)
	if len(states) != Rounds {
		t.Fatalf("%d states, want %d", len(states), Rounds)
	}
	// Round 1's indices are pt ⊕ K1 — key-dependent from the start.
	if states[0] != pt^c.RoundKeys()[0] {
		t.Fatalf("round-1 index state %016x, want %016x", states[0], pt^c.RoundKeys()[0])
	}
	// Recomputing the ciphertext from the index states must agree.
	s := states[Rounds-1]
	if got := PermBits(SubCells(s)) ^ c.RoundKeys()[Rounds]; got != c.EncryptBlock(pt) {
		t.Fatalf("trace-reconstructed ciphertext mismatch")
	}
	// The append form is the same trace truncated, in a reused buffer.
	buf := make([]uint64, 0, Rounds)
	for n := 0; n <= Rounds+1; n++ {
		got := c.SBoxInputsAppend(buf[:0], pt, n)
		if len(got) != min(n, Rounds) {
			t.Fatalf("n=%d: %d states", n, len(got))
		}
		for r := range got {
			if got[r] != states[r] {
				t.Fatalf("n=%d: round %d index state %016x, want %016x", n, r+1, got[r], states[r])
			}
		}
		if n > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("n=%d: buffer not reused", n)
		}
	}
}

// TestSBoxInputs128Consistent checks PRESENT-128's trace the same way:
// round 1 indexes with pt ⊕ K1, the last index state re-encrypts to the
// ciphertext, and the append form is the trace truncated.
func TestSBoxInputs128Consistent(t *testing.T) {
	c := NewCipher128([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	rks := c.RoundKeys()
	pt := uint64(0x0123456789abcdef)
	states := c.SBoxInputs(pt)
	if len(states) != Rounds || states[0] != pt^rks[0] {
		t.Fatalf("%d states, round-1 index state %016x", len(states), states[0])
	}
	for r := 1; r < Rounds; r++ {
		if want := Round(states[r-1], 0) ^ rks[r]; states[r] != want {
			t.Fatalf("round %d index state %016x, want %016x", r+1, states[r], want)
		}
	}
	if got := PermBits(SubCells(states[Rounds-1])) ^ rks[Rounds]; got != c.EncryptBlock(pt) {
		t.Fatal("trace-reconstructed ciphertext mismatch")
	}
	for n := 0; n <= Rounds+1; n++ {
		got := c.SBoxInputsAppend(nil, pt, n)
		if len(got) != min(n, Rounds) {
			t.Fatalf("n=%d: %d states", n, len(got))
		}
		for r := range got {
			if got[r] != states[r] {
				t.Fatalf("n=%d: round %d index state %016x, want %016x", n, r+1, got[r], states[r])
			}
		}
	}
}

func TestPartialDecrypt(t *testing.T) {
	c := NewCipher80(mustKey80(t, present80KATs[0].key))
	rks := c.RoundKeys()
	pt := uint64(0xfeedfacecafebeef)
	s := pt
	for r := 0; r < 5; r++ {
		s = Round(s, rks[r])
	}
	if PartialDecrypt(s, rks, 5) != pt {
		t.Fatal("PartialDecrypt failed")
	}
}

func TestRecoverKey80FromRoundKeys(t *testing.T) {
	f := func(kLo uint64, kHi uint16) bool {
		var key [10]byte
		key[0] = byte(kHi >> 8)
		key[1] = byte(kHi)
		for i := 0; i < 8; i++ {
			key[2+i] = byte(kLo >> (56 - 8*i))
		}
		c := NewCipher80(key)
		rks := c.RoundKeys()
		return RecoverKey80(rks[0], rks[1]) == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvalanche80(t *testing.T) {
	c := NewCipher80(mustKey80(t, present80KATs[3].key))
	pt := uint64(0x0123456789abcdef)
	base := c.EncryptBlock(pt)
	total := 0
	for i := uint(0); i < 64; i++ {
		diff := base ^ c.EncryptBlock(pt^(1<<i))
		n := 0
		for d := diff; d != 0; d &= d - 1 {
			n++
		}
		total += n
	}
	if avg := float64(total) / 64; avg < 28 || avg > 36 {
		t.Fatalf("average avalanche %.2f bits", avg)
	}
}

func TestKeyScheduleDistinctRoundKeys(t *testing.T) {
	c := NewCipher80(mustKey80(t, "00000000000000000000"))
	seen := map[uint64]bool{}
	for _, rk := range c.RoundKeys() {
		if seen[rk] {
			t.Fatal("repeated round key — schedule degenerate")
		}
		seen[rk] = true
	}
}

// updateKey80Ref and updateKey128Ref are the bit-at-a-time references
// for the key-schedule steps' word-shift rotations.
func updateKey80Ref(k key80, counter uint64) key80 {
	bit := func(i uint) uint64 {
		if i < 64 {
			return k.lo >> i & 1
		}
		return uint64(k.hi) >> (i - 64) & 1
	}
	var n key80
	for i := uint(0); i < 80; i++ {
		b := bit((i + 19) % 80)
		if i < 64 {
			n.lo |= b << i
		} else {
			n.hi |= uint16(b) << (i - 64)
		}
	}
	n.hi = n.hi&0x0fff | uint16(SBox[n.hi>>12])<<12
	n.lo ^= (counter & 0x1f) << 15
	return n
}

func updateKey128Ref(k bitutil.Word128, counter uint64) bitutil.Word128 {
	var n bitutil.Word128
	for i := uint(0); i < 128; i++ {
		n = n.SetBit(i, k.Bit((i+67)%128))
	}
	n.Hi = n.Hi&0x00ff_ffff_ffff_ffff | uint64(SBox[n.Hi>>60])<<60 | uint64(SBox[n.Hi>>56&0xf])<<56
	n.Hi ^= (counter & 0x1f) >> 2
	n.Lo ^= (counter & 0x3) << 62
	return n
}

func TestKeyUpdateMatchesPerBit(t *testing.T) {
	f := func(hi uint16, lo, lo2 uint64, counter uint8) bool {
		c := uint64(counter%32) + 1
		k80 := key80{hi: hi, lo: lo}
		k128 := bitutil.Word128{Lo: lo, Hi: lo2}
		return updateKey80(k80, c) == updateKey80Ref(k80, c) &&
			updateKey128(k128, c) == updateKey128Ref(k128, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var sinkState uint64

func BenchmarkPermBits(b *testing.B) {
	s := uint64(0x0123456789abcdef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = PermBits(s)
	}
	sinkState = s
}
