package gift

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
)

// The known-answer vectors below are the official ones published with the
// GIFT reference implementation (github.com/giftcipher/gift, the same
// repository the GRINCH paper's experimental setup uses).
var gift64KATs = []struct {
	key, pt, ct string
}{
	{
		key: "00000000000000000000000000000000",
		pt:  "0000000000000000",
		ct:  "f62bc3ef34f775ac",
	},
	{
		key: "fedcba9876543210fedcba9876543210",
		pt:  "fedcba9876543210",
		ct:  "c1b71f66160ff587",
	},
}

func mustKey(t *testing.T, s string) [16]byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		t.Fatalf("bad key literal %q: %v", s, err)
	}
	var k [16]byte
	copy(k[:], b)
	return k
}

func mustUint64(t *testing.T, s string) uint64 {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 8 {
		t.Fatalf("bad block literal %q: %v", s, err)
	}
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func TestGift64KnownAnswers(t *testing.T) {
	for _, kat := range gift64KATs {
		c := NewCipher64(mustKey(t, kat.key))
		pt := mustUint64(t, kat.pt)
		want := mustUint64(t, kat.ct)
		if got := c.EncryptBlock(pt); got != want {
			t.Errorf("key %s: Encrypt(%s) = %016x, want %s", kat.key, kat.pt, got, kat.ct)
		}
		if got := c.DecryptBlock(want); got != pt {
			t.Errorf("key %s: Decrypt(%s) = %016x, want %s", kat.key, kat.ct, got, kat.pt)
		}
	}
}

func TestGift64ByteInterface(t *testing.T) {
	for _, kat := range gift64KATs {
		c := NewCipher64(mustKey(t, kat.key))
		src, _ := hex.DecodeString(kat.pt)
		want, _ := hex.DecodeString(kat.ct)
		dst := make([]byte, 8)
		c.Encrypt(dst, src)
		if hex.EncodeToString(dst) != kat.ct {
			t.Errorf("Encrypt bytes = %x, want %x", dst, want)
		}
		back := make([]byte, 8)
		c.Decrypt(back, dst)
		if hex.EncodeToString(back) != kat.pt {
			t.Errorf("Decrypt bytes = %x, want %s", back, kat.pt)
		}
	}
}

func TestGift64EncryptInPlace(t *testing.T) {
	c := NewCipher64(mustKey(t, gift64KATs[1].key))
	buf, _ := hex.DecodeString(gift64KATs[1].pt)
	c.Encrypt(buf, buf)
	if hex.EncodeToString(buf) != gift64KATs[1].ct {
		t.Fatalf("in-place Encrypt = %x, want %s", buf, gift64KATs[1].ct)
	}
}

func TestGift64RoundTripQuick(t *testing.T) {
	f := func(keyLo, keyHi, pt uint64) bool {
		c := NewCipher64FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		return c.DecryptBlock(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGift64BitslicedAgreesQuick(t *testing.T) {
	f := func(keyLo, keyHi, pt uint64) bool {
		c := NewCipher64FromWord(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		return c.EncryptBlockBitsliced(pt) == c.EncryptBlock(pt) &&
			c.DecryptBlockBitsliced(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRound64Inverse(t *testing.T) {
	f := func(state uint64, u, v uint16, cIdx uint8) bool {
		rk := RoundKey64{U: u, V: v, Const: RoundConstants[int(cIdx)%Rounds64]}
		return InvRound64(Round64(state, rk), rk) == state
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermBits64Inverse(t *testing.T) {
	f := func(s uint64) bool {
		return InvPermBits64(PermBits64(s)) == s && PermBits64(InvPermBits64(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubCells64MatchesPerNibble(t *testing.T) {
	f := func(s uint64) bool {
		out := SubCells64(s)
		for i := uint(0); i < 16; i++ {
			if bitutil.Nibble(out, i) != uint64(SBox[bitutil.Nibble(s, i)]) {
				return false
			}
		}
		return InvSubCells64(out) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyScheduleCoversAllBitsInFourRounds verifies the property GRINCH
// exploits: rounds 1..4 together consume all 128 key bits exactly once
// (32 bits per round), so recovering four consecutive round keys yields
// the master key.
func TestKeyScheduleCoversAllBitsInFourRounds(t *testing.T) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	rks := ExpandKey64(key)

	// Round r uses limbs k_{2r+1}, k_{2r} of the original key (the key
	// state shifts right by two limbs per round, unrotated for the
	// first four rounds' extraction).
	for r := 0; r < 4; r++ {
		wantU := key.Word16(uint(2*r + 1))
		wantV := key.Word16(uint(2 * r))
		if rks[r].U != wantU || rks[r].V != wantV {
			t.Fatalf("round %d key = (U=%04x,V=%04x), want (U=%04x,V=%04x)",
				r+1, rks[r].U, rks[r].V, wantU, wantV)
		}
	}
}

// TestRecoverMasterKeyFromFourRoundKeys checks the reassembly direction:
// the four first round keys determine the master key.
func TestRecoverMasterKeyFromFourRoundKeys(t *testing.T) {
	f := func(lo, hi uint64) bool {
		key := bitutil.Word128{Lo: lo, Hi: hi}
		rks := ExpandKey64(key)
		var rebuilt bitutil.Word128
		for r := 0; r < 4; r++ {
			rebuilt = rebuilt.SetWord16(uint(2*r), rks[r].V)
			rebuilt = rebuilt.SetWord16(uint(2*r+1), rks[r].U)
		}
		return rebuilt == key
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateKeyStatePeriodicity(t *testing.T) {
	// The key-state update is a bijection; iterating it must never lose
	// information. Check that distinct keys stay distinct over many
	// iterations (weak but cheap sanity) and that the documented limb
	// movement holds for one step.
	ks := bitutil.Word128{Lo: 0x1111222233334444, Hi: 0x5555666677778888}
	next := UpdateKeyState(ks)
	if next.Word16(0) != ks.Word16(2) || next.Word16(5) != ks.Word16(7) {
		t.Fatalf("limb shift wrong: next=%v ks=%v", next, ks)
	}
	if next.Word16(7) != bitutil.RotR16(ks.Word16(1), 2) {
		t.Fatalf("k7 rotation wrong")
	}
	if next.Word16(6) != bitutil.RotR16(ks.Word16(0), 12) {
		t.Fatalf("k6 rotation wrong")
	}
}

func TestEncryptTracedMatchesPlain(t *testing.T) {
	c := NewCipher64(mustKey(t, gift64KATs[1].key))
	pt := mustUint64(t, gift64KATs[1].pt)
	count := 0
	ct := c.EncryptTraced(pt, ObserverFunc(func(round, segment int, index uint8) {
		count++
		if round < 1 || round > Rounds64 {
			t.Fatalf("round %d out of range", round)
		}
		if segment < 0 || segment >= Segments64 {
			t.Fatalf("segment %d out of range", segment)
		}
		if index > 0xf {
			t.Fatalf("index %#x out of range", index)
		}
	}))
	if ct != c.EncryptBlock(pt) {
		t.Fatalf("traced ciphertext %016x != plain %016x", ct, c.EncryptBlock(pt))
	}
	if count != Rounds64*Segments64 {
		t.Fatalf("observed %d lookups, want %d", count, Rounds64*Segments64)
	}
}

func TestSBoxInputsConsistent(t *testing.T) {
	c := NewCipher64(mustKey(t, gift64KATs[1].key))
	pt := mustUint64(t, gift64KATs[1].pt)
	states := c.SBoxInputs(pt)
	if len(states) != Rounds64 {
		t.Fatalf("got %d states, want %d", len(states), Rounds64)
	}
	if states[0] != pt {
		t.Fatalf("round-1 S-box input %016x != plaintext %016x", states[0], pt)
	}
	// The trace observer must report exactly the nibbles of each state.
	r := 0
	c.EncryptTraced(pt, ObserverFunc(func(round, segment int, index uint8) {
		if round != r+1 && segment == 0 {
			r = round - 1
		}
		if got := uint8(bitutil.Nibble(states[round-1], uint(segment))); got != index {
			t.Fatalf("round %d segment %d: trace index %#x, state nibble %#x", round, segment, index, got)
		}
	}))
}

func TestPartialEncryptDecrypt64(t *testing.T) {
	c := NewCipher64(mustKey(t, gift64KATs[0].key))
	rks := c.RoundKeys()
	pt := uint64(0xdeadbeefcafef00d)
	for n := 0; n <= Rounds64; n++ {
		mid := PartialEncrypt64(pt, rks, n)
		if PartialDecrypt64(mid, rks, n) != pt {
			t.Fatalf("partial round-trip failed at n=%d", n)
		}
	}
	if PartialEncrypt64(pt, rks, Rounds64) != c.EncryptBlock(pt) {
		t.Fatalf("full partial encrypt != EncryptBlock")
	}
}

func TestPartialEncrypt64PanicsOnTooManyRounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n > len(rks)")
		}
	}()
	PartialEncrypt64(0, make([]RoundKey64, 3), 4)
}

// TestAvalanche64 is a statistical sanity check: flipping one plaintext
// bit should flip roughly half the ciphertext bits after full encryption.
func TestAvalanche64(t *testing.T) {
	c := NewCipher64(mustKey(t, gift64KATs[1].key))
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
		if n < 10 || n > 54 {
			t.Errorf("bit %d: only %d output bits flipped", i, n)
		}
	}
	avg := float64(total) / 64
	if avg < 28 || avg > 36 {
		t.Fatalf("average avalanche %.2f bits, want ≈32", avg)
	}
}

// sinkState keeps benchmarked results live.
var sinkState uint64

// BenchmarkPermBits64 chains the GIFT-64 permutation network, as
// BenchmarkPermBits128 chains the GIFT-128 one.
func BenchmarkPermBits64(b *testing.B) {
	s := uint64(0x0123456789abcdef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = PermBits64(s)
	}
	sinkState = s
}
