package core

import (
	"errors"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/rng"
)

func TestNewAttacker128RejectsSingleLine(t *testing.T) {
	ch, err := oracle.New128(bitutil.Word128{}, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttacker128(ch, Config{}); err == nil {
		t.Fatal("single-line channel accepted")
	}
}

func TestNewAttackerPRejectsSingleLine(t *testing.T) {
	var key [10]byte
	c := present.NewCipher80(key)
	ch, err := oracle.NewPresent(c, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAttackerP(ch, Config{}); err == nil {
		t.Fatal("single-line channel accepted")
	}
}

func TestAttackRound128RequiresResolvedKeys(t *testing.T) {
	ch := cleanChannel128(t, bitutil.Word128{Lo: 1}, 1)
	a := newAttacker128(t, ch, Config{Seed: 1})
	if _, err := a.AttackRound(3, nil, nil); err == nil {
		t.Fatal("round 3 without round keys accepted")
	}
}

func TestAttackRoundPRequiresResolvedKeys(t *testing.T) {
	var key [10]byte
	c := present.NewCipher80(key)
	ch, _ := oracle.NewPresent(c, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
	a, err := NewAttackerP(ch, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttackRound(3, nil, nil); err == nil {
		t.Fatal("round 3 without round keys accepted")
	}
}

func TestBudgetAborts128(t *testing.T) {
	key := bitutil.Word128{Lo: 3, Hi: 4}
	ch, err := oracle.New128(key, oracle.Config{ProbeRound: 30, Flush: false, LineWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := newAttacker128(t, ch, Config{Seed: 2, TotalBudget: 1000})
	_, err = a.RecoverKey128()
	if err == nil {
		t.Fatal("saturated channel should fail")
	}
	if !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestBudgetAbortsPresent(t *testing.T) {
	var key [10]byte
	key[0] = 0x42
	c := present.NewCipher80(key)
	ch, _ := oracle.NewPresent(c, oracle.Config{ProbeRound: 25, Flush: false, LineWords: 1})
	a, err := NewAttackerP(ch, Config{Seed: 2, TotalBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecoverKey80(); err == nil {
		t.Fatal("saturated channel should fail")
	}
}

func TestTargetSpecPPanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTargetP(0, 0) },
		func() { NewTargetP(32, 0) },
		func() { NewTargetP(1, 16) },
		func() { NewTarget128(0, 0) },
		func() { NewTarget128(1, 32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCraftPlaintextPanicsWithoutKeys(t *testing.T) {
	r := rng.New(1)
	for _, fn := range []func(){
		func() { NewTarget64(3, 0).CraftPlaintext(r, nil) },
		func() { NewTarget128(3, 0).CraftPlaintext(r, nil) },
		func() { NewTargetP(3, 0).CraftPlaintext(r, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// newRoundOutcome builds an empty round-1 outcome for a cipher.
func newRoundOutcome[W, RK any](d *cipherDesc[W, RK]) RoundOutcome[RK] {
	return RoundOutcome[RK]{Round: 1, Cands: make([][]uint8, d.segments), roundKey: d.roundKey}
}

func TestRoundOutcomeUniqueNegative(t *testing.T) {
	out := newRoundOutcome(&gift64)
	for g := range out.Cands {
		out.Cands[g] = []uint8{0, 1} // ambiguous
	}
	if _, ok := out.Unique(); ok {
		t.Fatal("ambiguous outcome reported unique")
	}

	out128 := newRoundOutcome(&gift128)
	for g := range out128.Cands {
		out128.Cands[g] = []uint8{2}
	}
	out128.Cands[7] = nil
	if _, ok := out128.Unique(); ok {
		t.Fatal("incomplete 128 outcome reported unique")
	}

	outP := newRoundOutcome(&present80)
	for g := range outP.Cands {
		outP.Cands[g] = []uint8{5}
	}
	if rk, ok := outP.Unique(); !ok || rk != 0x5555555555555555 {
		t.Fatalf("uniform PRESENT outcome: rk=%x ok=%v", rk, ok)
	}
}

func TestAttackTargetReportsFailureOnWrongHypothesis(t *testing.T) {
	// Feed a deliberately wrong round key for crafting round 2: the
	// pinning breaks, so with confirmation enabled the outcome must
	// report exhaustion or infeasibility rather than converge.
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	ch := cleanChannel(t, key, 1)
	a := newAttacker(t, ch, Config{Seed: 3})
	out1, err := a.AttackRound(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, ok := out1.Unique()
	if !ok {
		t.Fatal("round 1 ambiguous at 1-word lines")
	}
	rk.U ^= 0xffff // corrupt every U bit
	spec := NewTarget64(2, 5)
	o := a.attackTarget(&spec, spec.Round, spec.Segment, []gift.RoundKey64{rk}, true)
	if o.Converged {
		t.Fatalf("corrupted round key converged to line %d", o.Line)
	}
	if !o.Exhausted && !o.Infeasible {
		t.Fatalf("expected exhaustion or infeasibility, got %+v", o)
	}
}
