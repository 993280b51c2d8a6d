package experiments

import (
	"strings"
	"testing"
)

func TestCompareCiphers(t *testing.T) {
	rows := CompareCiphers(Options{Trials: 1, Budget: 100_000, Seed: 3})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]CompareRow{}
	for _, r := range rows {
		if !r.AllCorrect {
			t.Fatalf("%s: recovery failed", r.Cipher)
		}
		byName[r.Cipher] = r
	}
	// PRESENT leaks 4 bits per pinned segment vs GIFT's 2: cheaper per
	// key bit.
	if byName["PRESENT-80"].PerKeyBit >= byName["GIFT-64"].PerKeyBit {
		t.Errorf("PRESENT per-bit (%f) should beat GIFT-64 (%f)",
			byName["PRESENT-80"].PerKeyBit, byName["GIFT-64"].PerKeyBit)
	}
	// GIFT-128 needs only two round passes; GIFT-64 needs four.
	if byName["GIFT-128"].RoundPasses != 2 || byName["GIFT-64"].RoundPasses != 4 {
		t.Errorf("round passes: GIFT-128=%d (want 2), GIFT-64=%d (want 4)",
			byName["GIFT-128"].RoundPasses, byName["GIFT-64"].RoundPasses)
	}
	if byName["PRESENT-80"].RoundPasses != 2 {
		t.Errorf("PRESENT-80 passes = %d, want 2", byName["PRESENT-80"].RoundPasses)
	}
}

func TestCompareProbeMethods(t *testing.T) {
	rows := CompareProbeMethods(Options{Trials: 1, Budget: 100_000, Seed: 5})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	fr, et := rows[0].Encryptions.Median, rows[1].Encryptions.Median
	if et < 8*fr {
		t.Fatalf("Evict+Time (%f) should cost ~16x Flush+Reload (%f)", et, fr)
	}
}

func TestCompareRenderers(t *testing.T) {
	opt := Options{Trials: 1, Budget: 100_000, Seed: 7}
	if s := RenderCompare(CompareCiphers(opt)); !strings.Contains(s, "PRESENT-80") || !strings.Contains(s, "GIFT-128") {
		t.Errorf("RenderCompare malformed:\n%s", s)
	}
	if s := RenderProbeMethods(CompareProbeMethods(opt)); !strings.Contains(s, "Evict+Time") || !strings.Contains(s, "ratio") {
		t.Errorf("RenderProbeMethods malformed:\n%s", s)
	}
}

// TestRunTrialsRepanicsFailedTrial pins that a panicking trial is
// never dropped: runTrials panics with the failed job's error.
func TestRunTrialsRepanicsFailedTrial(t *testing.T) {
	defer func() {
		err, ok := recover().(error)
		if !ok || !strings.Contains(err.Error(), "trial 1: panic: boom") {
			t.Fatalf("recovered %v, want the error of trial 1", err)
		}
	}()
	runTrials(2, []func() int{
		func() int { return 0 },
		func() int { panic("boom") },
		func() int { return 2 },
	})
	t.Fatal("runTrials returned after a failed trial")
}
