package core

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/obs"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/rng"
)

func presentKey(r *rng.Source) [10]byte {
	var key [10]byte
	lo, hi := r.Uint64(), r.Uint64()
	key[0] = byte(hi >> 8)
	key[1] = byte(hi)
	for i := 0; i < 8; i++ {
		key[2+i] = byte(lo >> (56 - 8*uint(i)))
	}
	return key
}

func presentChannel(t *testing.T, c *present.Cipher80, lineWords int) *oracle.OracleP {
	t.Helper()
	ch, err := oracle.NewPresent(c, oracle.Config{ProbeRound: 1, Flush: true, LineWords: lineWords})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestPresentTargetCrafting(t *testing.T) {
	r := rng.New(12)
	key := presentKey(r)
	c := present.NewCipher80(key)
	rks := c.RoundKeys()
	for round := 1; round <= 3; round++ {
		for g := 0; g < 16; g += 3 {
			spec := NewTargetP(round, g)
			for rep := 0; rep < 5; rep++ {
				pt := spec.CraftPlaintext(r, rks[:round-1])
				states := c.SBoxInputs(pt)
				got := uint8(states[round-1] >> (4 * uint(g)) & 0xf)
				keyNibble := uint8(rks[round-1] >> (4 * uint(g)) & 0xf)
				if want := spec.ExpectedIndex(keyNibble); got != want {
					t.Fatalf("round %d segment %d: index %#x, want %#x", round, g, got, want)
				}
			}
		}
	}
}

func TestPresentKeyNibbleRoundTrip(t *testing.T) {
	spec := NewTargetP(1, 5)
	for v := uint8(0); v < 16; v++ {
		if got := spec.CandidatesForLine(int(spec.ExpectedIndex(v)), 1); len(got) != 1 || got[0] != v {
			t.Fatalf("nibble %d round-trips to %v", v, got)
		}
	}
}

func TestPresentNibblesForLine(t *testing.T) {
	spec := NewTargetP(1, 0)
	for _, c := range []struct{ words, n int }{{1, 1}, {2, 2}, {4, 4}, {8, 8}} {
		line := int(spec.ExpectedIndex(7)) / c.words
		if got := len(spec.CandidatesForLine(line, c.words)); got != c.n {
			t.Fatalf("width %d: %d candidates, want %d", c.words, got, c.n)
		}
	}
}

// TestPresentParentStructure documents how PRESENT's pLayer differs
// from GIFT's: every S-box p feeds its four children at the SAME
// position p mod 4 (GIFT's permutation instead spreads each segment
// across all four positions). This alignment is why wide-line
// hypothesis pruning does not transfer from GIFT to PRESENT.
func TestPresentParentStructure(t *testing.T) {
	feeds := map[int]map[int]int{} // parent segment → position → count
	for g := 0; g < 16; g++ {
		parents := NewTargetP(2, g).ParentSegments()
		for j, p := range parents {
			if feeds[p] == nil {
				feeds[p] = map[int]int{}
			}
			feeds[p][j]++
		}
	}
	for p := 0; p < 16; p++ {
		pos := feeds[p]
		if len(pos) != 1 || pos[p%4] != 4 {
			t.Fatalf("parent %d feeds positions %v, want position %d ×4", p, pos, p%4)
		}
	}
}

// TestPresentWideLineDeterministicDerivative verifies the property that
// blocks wide-line recovery: for input difference 1 the PRESENT S-box
// flips output bit 0 deterministically (DDT row Δ=1 has bit 0 active
// for every x), so a hidden-bit hypothesis error is unobservable as
// variance at bit-0-fed targets.
func TestPresentWideLineDeterministicDerivative(t *testing.T) {
	for x := uint8(0); x < 16; x++ {
		if (present.SBox[x]^present.SBox[x^1])&1 != 1 {
			t.Fatalf("S(%#x)⊕S(%#x) has bit 0 clear — derivative not deterministic after all", x, x^1)
		}
	}
	// GIFT's S-box does NOT have this trap on any (bit, diff) axis that
	// its permutation would align: f_j(x⊕e) varies over the pinned
	// input lists (checked in computeWorstPinShare: share < 1).
	if worstPinShare >= 1 {
		t.Fatal("GIFT share degenerate")
	}
}

func TestWorstPinShareP(t *testing.T) {
	if worstPinShareP >= 1 || worstPinShareP < 0.5 {
		t.Fatalf("worstPinShareP = %v", worstPinShareP)
	}
}

// TestRecoverPresent80Ideal: the headline for the comparison — PRESENT
// falls in two attacked rounds with four key bits per pinned segment.
func TestRecoverPresent80Ideal(t *testing.T) {
	r := rng.New(20)
	key := presentKey(r)
	c := present.NewCipher80(key)
	ch := presentChannel(t, c, 1)
	a, err := NewAttackerP(ch, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RecoverKey80()
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != key {
		t.Fatalf("recovered %x, want %x", res.Key, key)
	}
	if res.RoundsAttacked != 2 {
		t.Fatalf("attacked %d rounds, want 2", res.RoundsAttacked)
	}
	t.Logf("PRESENT-80 full key: %d encryptions", res.Encryptions)
	if res.Encryptions > 600 {
		t.Fatalf("PRESENT recovery took %d encryptions, expected a couple hundred", res.Encryptions)
	}
}

func TestRecoverPresent80ManyKeys(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 5; trial++ {
		key := presentKey(r)
		c := present.NewCipher80(key)
		ch := presentChannel(t, c, 1)
		a, err := NewAttackerP(ch, Config{Seed: uint64(trial) + 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RecoverKey80()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Key != key {
			t.Fatalf("trial %d: wrong key", trial)
		}
	}
}

func TestRecoverPresent80WideLinesRefused(t *testing.T) {
	// Wide lines are declined outright (see RecoverKey80's doc comment
	// and TestPresentWideLineDeterministicDerivative): proceeding could
	// return a silently wrong key.
	r := rng.New(44)
	key := presentKey(r)
	c := present.NewCipher80(key)
	ch := presentChannel(t, c, 2)
	a, err := NewAttackerP(ch, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecoverKey80(); err == nil {
		t.Fatal("wide-line PRESENT recovery should be refused")
	}
	// First-round line identification (the Table I metric) still works.
	out, err := a.AttackRound(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g, cands := range out.Cands {
		truth := uint8(c.RoundKeys()[0] >> (4 * uint(g)) & 0xf)
		found := false
		for _, v := range cands {
			if v == truth {
				found = true
			}
		}
		if !found {
			t.Fatalf("segment %d: truth %d not among candidates %v", g, truth, cands)
		}
	}
}

// TestPresentCheaperPerBitThanGift quantifies the §II comparison from
// the attack side: recovering PRESENT's 64 first-round key bits must
// cost less than twice GIFT's 32 first-round bits (it leaks 4 bits per
// pinned segment instead of 2, with the same elimination cost).
func TestPresentCheaperPerBitThanGift(t *testing.T) {
	r := rng.New(50)

	key := presentKey(r)
	cp := present.NewCipher80(key)
	chP := presentChannel(t, cp, 1)
	ap, err := NewAttackerP(chP, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	outP, err := ap.AttackRound(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	gKey := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	chG := cleanChannel(t, gKey, 1)
	ag := newAttacker(t, chG, Config{Seed: 2})
	outG, err := ag.AttackRound(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	perBitP := float64(outP.Encryptions) / 64
	perBitG := float64(outG.Encryptions) / 32
	t.Logf("per-key-bit effort: PRESENT %.2f, GIFT %.2f encryptions", perBitP, perBitG)
	if perBitP >= perBitG {
		t.Fatalf("PRESENT (%.2f/bit) should be cheaper prey than GIFT (%.2f/bit)", perBitP, perBitG)
	}
}

// TestPresentHonoursRobustnessConfig: PRESENT runs on the shared engine,
// so a flaky channel is retried under Config.Retry, a dropped window is
// quarantined, and the run emits the same trace events as the GIFT
// attacks.
func TestPresentHonoursRobustnessConfig(t *testing.T) {
	r := rng.New(21)
	key := presentKey(r)
	c := present.NewCipher80(key)
	fl := &flakyChannel{ch: &degradeChannel{ch: presentChannel(t, c, 1), k: 9, set: 0}, failEvery: 5}
	var buf obs.Buffer
	a, err := NewAttackerP(fl, Config{Seed: 1, Retry: RetryPolicy{MaxAttempts: 2}, Quarantine: true, Tracer: &buf})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RecoverKey80()
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != key {
		t.Fatal("recovered wrong key through a flaky channel")
	}
	kinds := map[obs.Kind]int{}
	for _, e := range buf.Events {
		if e.Cipher != "PRESENT" {
			t.Fatalf("event %+v not labeled PRESENT", e)
		}
		kinds[e.Kind]++
	}
	if kinds[obs.KindRetry] == 0 || kinds[obs.KindProbeObservation] == 0 || kinds[obs.KindSegmentRecovered] != 2*present.Segments {
		t.Fatalf("event kinds %v: want retries, observations and %d recoveries", kinds, 2*present.Segments)
	}

	// Without a retry policy the first transient failure aborts.
	fl = &flakyChannel{ch: presentChannel(t, c, 1), failEvery: 1}
	a, err = NewAttackerP(fl, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecoverKey80(); err == nil || !isTransient(err) {
		t.Fatalf("err = %v, want the transient channel failure", err)
	}
}
