package countermeasure

import (
	"testing"
	"testing/quick"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/gift"
	"grinch/internal/oracle"
	"grinch/internal/probe"
)

var testKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

func TestReshapedTableLookup(t *testing.T) {
	tab := NewReshapedTable()
	for x := uint8(0); x < 16; x++ {
		if got := tab.Lookup(x); got != gift.SBox[x] {
			t.Fatalf("Lookup(%#x) = %#x, want %#x", x, got, gift.SBox[x])
		}
	}
}

func TestReshapedTableRows(t *testing.T) {
	tab := NewReshapedTable()
	for x := uint8(0); x < 16; x++ {
		if tab.Row(x) != int(x/2) {
			t.Fatalf("Row(%#x) = %d", x, tab.Row(x))
		}
	}
}

func TestReshapedFitsOneLine(t *testing.T) {
	// The countermeasure's point: with 8-byte cache lines the table
	// spans exactly one line, so a probe resolves nothing.
	layout := Layout(0x2000)
	if lines := layout.LinesIn(8); lines != 1 {
		t.Fatalf("reshaped table spans %d 8-byte lines, want 1", lines)
	}
	// Whereas the original 16-entry table would span 2.
	orig := probe.TableLayout{Base: 0x2000, EntryBytes: 1, Entries: 16}
	if lines := orig.LinesIn(8); lines != 2 {
		t.Fatalf("original table spans %d lines, want 2", lines)
	}
}

func TestHardenedCipherMatchesReference(t *testing.T) {
	f := func(keyLo, keyHi, pt uint64) bool {
		key := bitutil.Word128{Lo: keyLo, Hi: keyHi}
		h := NewHardenedCipher64(key)
		ref := gift.NewCipher64FromWord(key)
		return h.EncryptBlock(pt) == ref.EncryptBlock(pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHardenedCipherRowTraceCollapses(t *testing.T) {
	h := NewHardenedCipher64(testKey)
	rows := map[int]bool{}
	h.EncryptTracedRows(0x123456789abcdef0, func(round, segment, row int) {
		if row < 0 || row > 7 {
			t.Fatalf("row %d out of range", row)
		}
		rows[row] = true
	})
	// Rows vary — but they all live in one 8-byte cache line, so the
	// attacker-visible line set is the single line {0}.
	layout := Layout(0)
	lines := map[int]bool{}
	for r := range rows {
		lines[layout.LineOf(r, 8)] = true
	}
	if len(lines) != 1 {
		t.Fatalf("row trace maps to %d cache lines, want 1", len(lines))
	}
}

func TestAttackRejectedAgainstReshapedTable(t *testing.T) {
	// With the whole table in one line the channel has a single line;
	// the attacker cannot even be constructed — candidate elimination
	// has nothing to distinguish (paper countermeasure 1).
	ch, err := oracle.New(testKey, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewAttacker(ch, core.Config{}); err == nil {
		t.Fatal("attack constructed against a single-line table")
	}
}

func TestWhitenIsBijection(t *testing.T) {
	seen := map[uint16]bool{}
	for x := 0; x < 1<<16; x++ {
		y := whiten(uint16(x))
		if seen[y] {
			t.Fatalf("whiten collision at %#x", x)
		}
		seen[y] = true
	}
}

func TestWhitenedCipherRoundTrip(t *testing.T) {
	f := func(keyLo, keyHi, pt uint64) bool {
		c := NewWhitenedCipher64(bitutil.Word128{Lo: keyLo, Hi: keyHi})
		return c.DecryptBlock(c.EncryptBlock(pt)) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWhitenedSBoxInputs checks the whitened cipher's victim trace:
// state r is the input of round r+1, the last one re-encrypts to the
// ciphertext, and SBoxInputsAppend is the same trace truncated.
func TestWhitenedSBoxInputs(t *testing.T) {
	c := NewWhitenedCipher64(testKey)
	rks := c.RoundKeys()
	pt := uint64(0xfedcba9876543210)
	states := c.SBoxInputs(pt)
	if len(states) != gift.Rounds64 || states[0] != pt {
		t.Fatalf("%d states, round-1 state %016x", len(states), states[0])
	}
	for r := 1; r < gift.Rounds64; r++ {
		if want := gift.Round64(states[r-1], rks[r-1]); states[r] != want {
			t.Fatalf("round %d state %016x, want %016x", r+1, states[r], want)
		}
	}
	if gift.Round64(states[gift.Rounds64-1], rks[gift.Rounds64-1]) != c.EncryptBlock(pt) {
		t.Fatal("trace-reconstructed ciphertext mismatch")
	}
	for n := 0; n <= gift.Rounds64+1; n++ {
		got := c.SBoxInputsAppend(nil, pt, n)
		if len(got) != min(n, gift.Rounds64) {
			t.Fatalf("n=%d: %d states", n, len(got))
		}
		for r := range got {
			if got[r] != states[r] {
				t.Fatalf("n=%d: round %d state %016x, want %016x", n, r+1, got[r], states[r])
			}
		}
	}
}

func TestWhitenedCipherDiffersFromStandard(t *testing.T) {
	c := NewWhitenedCipher64(testKey)
	ref := gift.NewCipher64FromWord(testKey)
	pt := uint64(0xfedcba9876543210)
	if c.EncryptBlock(pt) == ref.EncryptBlock(pt) {
		t.Fatal("whitened schedule produced the standard ciphertext")
	}
}

func TestWhitenedRoundKeysHideMasterKey(t *testing.T) {
	rks := WhitenedExpandKey64(testKey)
	std := gift.ExpandKey64(testKey)
	same := 0
	for r := 0; r < 4; r++ {
		if rks[r].U == std[r].U {
			same++
		}
		if rks[r].V == std[r].V {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d of 8 early sub-key words equal the raw key limbs", same)
	}
}

// TestGrinchDefeatedByWhitenedSchedule is the paper's countermeasure-2
// demonstration: GRINCH still recovers the per-round sub-keys (the
// cache channel is unchanged), but reassembling them no longer yields
// the master key, so full key retrieval fails.
func TestGrinchDefeatedByWhitenedSchedule(t *testing.T) {
	vic := NewWhitenedCipher64(testKey)
	ch, err := oracle.NewFromTracer(vic, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAttacker(ch, core.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RecoverKey()
	if err != nil {
		t.Fatalf("attack machinery failed outright: %v", err)
	}
	// The per-round sub-keys were recovered faithfully…
	want := vic.RoundKeys()
	for r := 0; r < 4; r++ {
		if res.RoundKeys[r].U != want[r].U || res.RoundKeys[r].V != want[r].V {
			t.Fatalf("round %d sub-key not recovered", r+1)
		}
	}
	// …but they are whitened images: the assembled "key" is wrong.
	if res.Key == testKey {
		t.Fatal("whitened schedule failed: master key recovered")
	}
	pt := uint64(0x1111222233334444)
	if core.Verify(res.Key, pt, vic.EncryptBlock(pt)) {
		t.Fatal("assembled key verifies against the victim cipher")
	}
}
