package gift

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
)

// Official GIFT-128 known-answer vectors from the designers' reference
// implementation.
var gift128KATs = []struct {
	key, pt, ct string
}{
	{
		key: "00000000000000000000000000000000",
		pt:  "00000000000000000000000000000000",
		ct:  "cd0bd738388ad3f668b15a36ceb6ff92",
	},
	{
		key: "fedcba9876543210fedcba9876543210",
		pt:  "fedcba9876543210fedcba9876543210",
		ct:  "8422241a6dbf5a9346af468409ee0152",
	},
}

func mustWord128(t *testing.T, s string) bitutil.Word128 {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		t.Fatalf("bad 128-bit literal %q: %v", s, err)
	}
	var arr [16]byte
	copy(arr[:], b)
	return bitutil.Word128FromBytes(arr)
}

func TestGift128KnownAnswers(t *testing.T) {
	for _, kat := range gift128KATs {
		c := NewCipher128(mustKey(t, kat.key))
		pt := mustWord128(t, kat.pt)
		want := mustWord128(t, kat.ct)
		if got := c.EncryptBlock(pt); got != want {
			t.Errorf("key %s: Encrypt(%s) = %016x%016x, want %s", kat.key, kat.pt, got.Hi, got.Lo, kat.ct)
		}
		if got := c.DecryptBlock(want); got != pt {
			t.Errorf("key %s: Decrypt(%s) = %016x%016x, want %s", kat.key, kat.ct, got.Hi, got.Lo, kat.pt)
		}
	}
}

func TestGift128ByteInterface(t *testing.T) {
	for _, kat := range gift128KATs {
		c := NewCipher128(mustKey(t, kat.key))
		src, _ := hex.DecodeString(kat.pt)
		dst := make([]byte, 16)
		c.Encrypt(dst, src)
		if hex.EncodeToString(dst) != kat.ct {
			t.Errorf("Encrypt bytes = %x, want %s", dst, kat.ct)
		}
		back := make([]byte, 16)
		c.Decrypt(back, dst)
		if hex.EncodeToString(back) != kat.pt {
			t.Errorf("Decrypt bytes = %x, want %s", back, kat.pt)
		}
	}
}

func TestGift128RoundTripQuick(t *testing.T) {
	f := func(keyLo, keyHi, ptLo, ptHi uint64) bool {
		c := NewCipher128FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		pt := bitutil.Word128{Lo: ptLo, Hi: ptHi}
		return c.DecryptBlock(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGift128BitslicedAgreesQuick(t *testing.T) {
	f := func(keyLo, keyHi, ptLo, ptHi uint64) bool {
		c := NewCipher128FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		pt := bitutil.Word128{Lo: ptLo, Hi: ptHi}
		ct := c.EncryptBlock(pt)
		return c.EncryptBlockBitsliced(pt) == ct && c.DecryptBlockBitsliced(ct) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRound128Inverse(t *testing.T) {
	f := func(lo, hi uint64, u, v uint32, cIdx uint8) bool {
		rk := RoundKey128{U: u, V: v, Const: RoundConstants[int(cIdx)%Rounds128]}
		s := bitutil.Word128{Lo: lo, Hi: hi}
		return InvRound128(Round128(s, rk), rk) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermBits128Inverse(t *testing.T) {
	f := func(lo, hi uint64) bool {
		s := bitutil.Word128{Lo: lo, Hi: hi}
		return InvPermBits128(PermBits128(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGift128TracedMatchesPlain(t *testing.T) {
	c := NewCipher128(mustKey(t, gift128KATs[1].key))
	pt := mustWord128(t, gift128KATs[1].pt)
	count := 0
	ct := c.EncryptTraced(pt, ObserverFunc(func(round, segment int, index uint8) {
		count++
		if segment < 0 || segment >= Segments128 || index > 0xf {
			t.Fatalf("bad observation round=%d segment=%d index=%#x", round, segment, index)
		}
	}))
	if ct != c.EncryptBlock(pt) {
		t.Fatalf("traced ciphertext differs from plain encryption")
	}
	if count != Rounds128*Segments128 {
		t.Fatalf("observed %d lookups, want %d", count, Rounds128*Segments128)
	}
}

// TestKeySchedule128CoversAllBitsInTwoRounds documents the GIFT-128
// analogue of the GRINCH observation: each round consumes 64 key bits
// (k5‖k4 and k1‖k0), so two consecutive round keys cover all limbs
// except k7,k6,k3,k2 — and four rounds cover every limb at least once.
func TestKeySchedule128CoversAllBitsInTwoRounds(t *testing.T) {
	key := bitutil.Word128{Lo: 0x0011223344556677, Hi: 0x8899aabbccddeeff}
	rks := ExpandKey128(key)
	// Round 1 uses k5,k4 (U) and k1,k0 (V) of the original key.
	if rks[0].U != uint32(key.Word16(5))<<16|uint32(key.Word16(4)) {
		t.Fatalf("round-1 U wrong")
	}
	if rks[0].V != uint32(key.Word16(1))<<16|uint32(key.Word16(0)) {
		t.Fatalf("round-1 V wrong")
	}
	// Round 2 uses limbs shifted by two: k7,k6 and k3,k2.
	if rks[1].U != uint32(key.Word16(7))<<16|uint32(key.Word16(6)) {
		t.Fatalf("round-2 U wrong")
	}
	if rks[1].V != uint32(key.Word16(3))<<16|uint32(key.Word16(2)) {
		t.Fatalf("round-2 V wrong")
	}
}

func TestPartialEncryptDecrypt128(t *testing.T) {
	c := NewCipher128(mustKey(t, gift128KATs[0].key))
	rks := c.RoundKeys()
	pt := bitutil.Word128{Lo: 0xdeadbeefcafef00d, Hi: 0x0123456789abcdef}
	for n := 0; n <= Rounds128; n++ {
		mid := PartialEncrypt128(pt, rks, n)
		if PartialDecrypt128(mid, rks, n) != pt {
			t.Fatalf("partial round-trip failed at n=%d", n)
		}
	}
	if PartialEncrypt128(pt, rks, Rounds128) != c.EncryptBlock(pt) {
		t.Fatalf("full partial encrypt != EncryptBlock")
	}
}

func TestPartial128PanicsOnTooManyRounds(t *testing.T) {
	rks := make([]RoundKey128, 3)
	for name, f := range map[string]func(){
		"encrypt": func() { PartialEncrypt128(bitutil.Word128{}, rks, 4) },
		"decrypt": func() { PartialDecrypt128(bitutil.Word128{}, rks, 4) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "gift: partial "+name) {
					t.Errorf("%s: panic %q, want the gift: partial %s guard", name, msg, name)
				}
			}()
			f()
		}()
	}
}

// spreadKeyBits64Ref and spreadKeyBits128Ref are the per-bit references
// for the shift-and-mask key spreads.
func spreadKeyBits64Ref(rk RoundKey64) uint64 {
	var m uint64
	for i := uint(0); i < 16; i++ {
		m |= (uint64(rk.U>>i) & 1) << (4*i + 1)
		m |= (uint64(rk.V>>i) & 1) << (4 * i)
	}
	m |= 1 << 63
	for i := uint(0); i < 6; i++ {
		m |= (uint64(rk.Const>>i) & 1) << (4*i + 3)
	}
	return m
}

func spreadKeyBits128Ref(rk RoundKey128) bitutil.Word128 {
	var lo, hi uint64
	for i := uint(0); i < 16; i++ {
		lo |= (uint64(rk.U>>i) & 1) << (4*i + 2)
		lo |= (uint64(rk.V>>i) & 1) << (4*i + 1)
		hi |= (uint64(rk.U>>(16+i)) & 1) << (4*i + 2)
		hi |= (uint64(rk.V>>(16+i)) & 1) << (4*i + 1)
	}
	hi |= 1 << 63
	for i := uint(0); i < 6; i++ {
		lo |= (uint64(rk.Const>>i) & 1) << (4*i + 3)
	}
	return bitutil.Word128{Lo: lo, Hi: hi}
}

func TestSpreadKeyBitsMatchPerBit(t *testing.T) {
	f := func(u, v uint32) bool {
		for c := uint8(0); c < 64; c++ {
			rk64 := RoundKey64{U: uint16(u), V: uint16(v), Const: c}
			rk128 := RoundKey128{U: u, V: v, Const: c}
			if spreadKeyBits64(rk64) != spreadKeyBits64Ref(rk64) ||
				spreadKeyBits128(rk128) != spreadKeyBits128Ref(rk128) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSBoxInputsAppend128(t *testing.T) {
	c := NewCipher128(mustKey(t, gift128KATs[1].key))
	pt := mustWord128(t, gift128KATs[1].pt)
	full := c.SBoxInputs(pt)
	buf := make([]bitutil.Word128, 0, Rounds128)
	for n := 0; n <= Rounds128+1; n++ {
		got := c.SBoxInputsAppend(buf[:0], pt, n)
		want := full[:min(n, Rounds128)]
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d states, want %d", n, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("n=%d: round %d state %v, want %v", n, r+1, got[r], want[r])
			}
		}
		if n > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("n=%d: buffer not reused", n)
		}
	}
	prefix := []bitutil.Word128{{Lo: 1}}
	if got := c.SBoxInputsAppend(prefix, pt, 1); len(got) != 2 || got[0] != prefix[0] || got[1] != pt {
		t.Fatalf("append after a prefix = %v", got)
	}
}

func TestSBoxInputs128Consistent(t *testing.T) {
	c := NewCipher128(mustKey(t, gift128KATs[1].key))
	pt := mustWord128(t, gift128KATs[1].pt)
	states := c.SBoxInputs(pt)
	if len(states) != Rounds128 {
		t.Fatalf("got %d states, want %d", len(states), Rounds128)
	}
	if states[0] != pt {
		t.Fatalf("round-1 S-box input differs from plaintext")
	}
	c.EncryptTraced(pt, ObserverFunc(func(round, segment int, index uint8) {
		if got := uint8(states[round-1].Nibble(uint(segment))); got != index {
			t.Fatalf("round %d segment %d: trace %#x, state nibble %#x", round, segment, index, got)
		}
	}))
}

func TestAvalanche128(t *testing.T) {
	c := NewCipher128(mustKey(t, gift128KATs[1].key))
	pt := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	base := c.EncryptBlock(pt)
	count := func(w bitutil.Word128) int {
		n := 0
		for d := w.Lo; d != 0; d &= d - 1 {
			n++
		}
		for d := w.Hi; d != 0; d &= d - 1 {
			n++
		}
		return n
	}
	total := 0
	for i := uint(0); i < 128; i++ {
		flipped := pt.SetBit(i, pt.Bit(i)^1)
		n := count(base.Xor(c.EncryptBlock(flipped)))
		total += n
		if n < 40 || n > 88 {
			t.Errorf("bit %d: %d output bits flipped", i, n)
		}
	}
	avg := float64(total) / 128
	if avg < 58 || avg > 70 {
		t.Fatalf("average avalanche %.2f bits, want ≈64", avg)
	}
}

// sinkWord keeps benchmarked results live.
var sinkWord bitutil.Word128

// BenchmarkSBoxInputsAppend128 is the GIFT-128 trace kernel as the
// ciphers workload's oracle runs it: probe round 1 with flush over the
// first-round attack, a two-round window per block.
func BenchmarkSBoxInputsAppend128(b *testing.B) {
	c := NewCipher128FromWord(bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210})
	buf := make([]bitutil.Word128, 0, Rounds128)
	pt := bitutil.Word128{Lo: 1, Hi: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.SBoxInputsAppend(buf[:0], pt, 2)
		pt.Lo += buf[1].Lo
	}
	sinkWord = pt
}

func BenchmarkPermBits128(b *testing.B) {
	s := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = PermBits128(s)
	}
	sinkWord = s
}
