package core

import (
	"testing"

	"grinch/internal/gift"
	"grinch/internal/oracle"
	"grinch/internal/probe"
)

// workOracle counts how an attack drew its observations from a GIFT-64
// oracle: the PrimeBatch calls, accepted or refused, the plaintext
// lanes each accepted PrimeBatch evaluated, the
// primed observations committed through CollectPrimed, and the
// observations collected one at a time through CollectMasked.
type workOracle struct {
	*oracle.Oracle
	primes, lanesPrimed, primedCommits, scalarCollects uint64
}

func (w *workOracle) PrimeBatch(pts []uint64, targetRound int, raw []probe.LineSet) bool {
	w.primes++
	ok := w.Oracle.PrimeBatch(pts, targetRound, raw)
	if ok {
		w.lanesPrimed += uint64(len(pts))
	}
	return ok
}

func (w *workOracle) CollectPrimed(raw probe.LineSet, targetRound int) (set, mask probe.LineSet) {
	w.primedCommits++
	return w.Oracle.CollectPrimed(raw, targetRound)
}

func (w *workOracle) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	w.scalarCollects++
	return w.Oracle.CollectMasked(pt, targetRound)
}

// TestPipelineWorkPinned pins the exact work the elimination pass does
// on the batched GIFT-64 path. Batching is invisible in outputs — the
// differential tests compare those — so a change in when or how much
// the pass speculates would pass them; these counts catch it. The
// cases cover first-round attacks at every line width, full recovery
// at 1- and 2-word lines (crafting ahead through rounds 2–5), a noisy
// relaxed-threshold run, budgets that cut inside a batched refill, and
// the two scalar runs: BatchOff, and a channel that refuses its first
// prime (after which it is never asked again).
func TestPipelineWorkPinned(t *testing.T) {
	type work struct{ primes, lanes, commits, scalar, encs uint64 }
	for _, c := range []struct {
		name string
		ocfg oracle.Config
		acfg Config
		// full runs RecoverKeyGraceful instead of a first-round pass;
		// refuse attacks through a NewFromTracer oracle, which refuses
		// every prime.
		full, refuse bool
		want         work
	}{
		{"first-round/1w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021}, false, false, work{2, 32, 4, 119, 123}},
		{"first-round/2w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 2, Seed: 11}, Config{Seed: 2021}, false, false, work{17, 320, 129, 185, 314}},
		{"first-round/4w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 4, Seed: 11}, Config{Seed: 2021}, false, false, work{56, 2304, 1815, 192, 2007}},
		{"first-round/8w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 8, Seed: 11}, Config{Seed: 2021, TotalBudget: 200_000}, false, false, work{3140, 200197, 199892, 108, 200000}},
		{"first-round/1w/pr3", oracle.Config{ProbeRound: 3, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021}, false, false, work{42, 1440, 983, 192, 1175}},
		{"full/1w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021}, true, false, work{4, 64, 10, 483, 493}},
		{"full/2w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 2, Seed: 11}, Config{Seed: 2021}, true, false, work{916, 50432, 47809, 1685, 49494}},
		{
			"noisy/relaxed",
			oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 23, FalsePresence: 0.05, FalseAbsence: 0.02},
			Config{Seed: 7, Threshold: 0.8, Quarantine: true, MaxRestarts: 2},
			true, false, work{128, 3072, 2329, 768, 3097},
		},
		{"budget/in-refill", oracle.Config{ProbeRound: 2, Flush: true, LineWords: 1, Seed: 3}, Config{Seed: 17, TotalBudget: 150}, false, false, work{6, 96, 58, 92, 150}},
		{"budget/full-2w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 2, Seed: 3}, Config{Seed: 17, TotalBudget: 1_000}, true, false, work{35, 928, 637, 363, 1000}},
		{"refused/full-1w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021}, true, true, work{1, 0, 0, 493, 493}},
		{"off/full-1w", oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021, Batch: BatchOff}, true, false, work{0, 0, 0, 493, 493}},
		{"refused/first-round-2w", oracle.Config{ProbeRound: 2, Flush: true, LineWords: 2, Seed: 3}, Config{Seed: 17, TotalBudget: 5_000}, false, true, work{1, 0, 0, 3867, 3867}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var o *oracle.Oracle
			var err error
			if c.refuse {
				o, err = oracle.NewFromTracer(gift.NewCipher64FromWord(differentialKey), c.ocfg)
			} else {
				o, err = oracle.New(differentialKey, c.ocfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			ch := &workOracle{Oracle: o}
			a, err := NewAttacker(ch, c.acfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.full {
				a.RecoverKeyGraceful()
			} else {
				a.AttackRound(1, nil, nil)
			}
			got := work{ch.primes, ch.lanesPrimed, ch.primedCommits, ch.scalarCollects, ch.Encryptions()}
			if got.commits+got.scalar != got.encs {
				t.Errorf("%d primed commits + %d scalar collects ≠ %d encryptions", got.commits, got.scalar, got.encs)
			}
			if got != c.want {
				t.Errorf("work = %+v, want %+v", got, c.want)
			}
		})
	}
}
