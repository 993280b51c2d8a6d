// Package experiments regenerates every table and figure of the GRINCH
// paper's evaluation (§IV):
//
//   - Fig3: encryptions required to break the first GIFT round vs. the
//     cache-probing round, with and without a flush.
//   - Table1: the same effort across cache line sizes of 1/2/4/8 words
//     and probing rounds 1..5, with the paper's 1M-encryption drop-out.
//   - Table2: the earliest successfully probed round on the single-SoC
//     and MPSoC platforms at 10/25/50 MHz.
//   - FullRecovery: the headline "full 128-bit key in fewer than 400
//     encryptions" run.
//   - Countermeasures: both §IV-C protections demonstrated.
//
// Each experiment is deterministic given Options.Seed.
package experiments

import (
	"errors"
	"fmt"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/countermeasure"
	"grinch/internal/oracle"
	"grinch/internal/rng"
	"grinch/internal/stats"
)

// Options control experiment scale.
type Options struct {
	// Trials per cell; each trial uses a fresh random key. Default 3.
	Trials int
	// Budget is the per-attack encryption cap. Cells that exceed it
	// are reported as dropped out, mirroring the paper's ">1M" entries.
	// Default 1,000,000.
	Budget uint64
	// Seed makes the whole run reproducible.
	Seed uint64
	// Workers bounds the campaign worker pool the swept experiments
	// (Fig3, Table1, Table2, FullRecovery) and the comparison and
	// platform-effort drivers (CompareCiphers, CompareProbeMethods,
	// PlatformEffort) run on; 0 means GOMAXPROCS. Results are identical
	// for every value — each grid cell's RNG is derived from (Seed, job
	// index), and each driver trial's inputs are drawn before the pool
	// starts, never in execution order.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.Budget == 0 {
		o.Budget = 1_000_000
	}
	return o
}

// Cell is one experiment measurement over Options.Trials trials.
type Cell struct {
	// Median encryptions over the trials that finished.
	Median float64
	// DroppedOut is set when any trial blew the budget (the paper
	// reports such cells as ">1M").
	DroppedOut bool
	// Trials holds the raw per-trial encryption counts (budget value
	// for dropped trials).
	Trials []uint64
}

// Summary summarizes the completed trials.
func (c Cell) Summary() stats.Summary { return stats.SummarizeUint64(c.Trials) }

// String renders the cell the way the paper's tables do.
func (c Cell) String() string {
	if c.DroppedOut {
		return ">" + humanCount(float64(budgetOf(c)))
	}
	return humanCount(c.Median)
}

func budgetOf(c Cell) uint64 {
	var max uint64
	for _, t := range c.Trials {
		if t > max {
			max = t
		}
	}
	return max
}

func humanCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Fig3Row is one x-axis position of paper Fig. 3.
type Fig3Row struct {
	ProbeRound   int
	WithFlush    Cell
	WithoutFlush Cell
}

// Fig3 regenerates paper Fig. 3: first-round attack effort vs. probing
// round, with and without flush, at the paper's default 1-word line.
// The grid runs as a campaign on opt.Workers workers.
func Fig3(opt Options, probeRounds []int) []Fig3Row {
	opt = opt.withDefaults()
	spec := Fig3Spec(opt, probeRounds)
	return Fig3FromResults(opt, spec.ProbeRounds, runCampaign(spec, opt.Workers))
}

// Table1Row is one line-size row of paper Table I.
type Table1Row struct {
	LineWords int
	// Cells indexed by probing round, aligned with the ProbeRounds
	// passed to Table1.
	Cells []Cell
}

// Table1 regenerates paper Table I: first-round attack effort across
// cache line sizes and probing rounds (flush enabled, as in the
// paper's best case). The grid runs as a campaign on opt.Workers
// workers.
func Table1(opt Options, lineWords, probeRounds []int) []Table1Row {
	opt = opt.withDefaults()
	spec := Table1Spec(opt, lineWords, probeRounds)
	return Table1FromResults(opt, spec.LineWords, spec.ProbeRounds, runCampaign(spec, opt.Workers))
}

// Table2Row is one platform row of paper Table II.
type Table2Row struct {
	Platform string
	// EarliestRound maps clock MHz to the first successfully probed
	// round.
	EarliestRound map[uint64]int
}

// Table2 regenerates paper Table II by running the full platform
// simulations as a campaign on opt.Workers workers, opt.Trials fresh
// keys per cell.
func Table2(opt Options, freqs []uint64) []Table2Row {
	opt = opt.withDefaults()
	spec := Table2Spec(opt, freqs)
	return Table2FromResults(spec.MHz, runCampaign(spec, opt.Workers))
}

// RecoveryResult is the headline full-key experiment.
type RecoveryResult struct {
	Encryptions stats.Summary
	AllCorrect  bool
	Failures    int
}

// FullRecovery measures complete 128-bit key recovery under the paper's
// best probing conditions (probe round 1, flush, 1-word lines), one
// campaign job per trial.
func FullRecovery(opt Options) RecoveryResult {
	opt = opt.withDefaults()
	return RecoveryFromResults(runCampaign(RecoverySpec(opt), opt.Workers))
}

// CounterResult reports the countermeasure demonstrations.
type CounterResult struct {
	// ReshapedRejected: with the reshaped single-line table the attack
	// cannot even be constructed.
	ReshapedRejected bool
	// WhitenedRoundKeysRecovered: the cache channel still leaks the
	// per-round sub-keys…
	WhitenedRoundKeysRecovered bool
	// WhitenedKeyRecoveryFailed: …but the master key cannot be
	// reassembled.
	WhitenedKeyRecoveryFailed bool
	Encryptions               uint64
}

// Countermeasures runs the §IV-C demonstrations.
func Countermeasures(opt Options) CounterResult {
	opt = opt.withDefaults()
	r := rng.New(opt.Seed ^ 0xcafe)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	var res CounterResult

	// Countermeasure 1: reshaped table in one cache line.
	single, err := oracle.New(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 16})
	if err == nil {
		_, err = core.NewAttacker(single, core.Config{})
		res.ReshapedRejected = err != nil
	}

	// Countermeasure 2: whitened key schedule.
	vic := countermeasure.NewWhitenedCipher64(key)
	ch, err := oracle.NewFromTracer(vic, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: r.Uint64()})
	if err != nil {
		panic(err)
	}
	a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget})
	if err != nil {
		panic(err)
	}
	out, err := a.RecoverKey()
	res.Encryptions = ch.Encryptions()
	if err == nil {
		want := vic.RoundKeys()
		recovered := true
		for t := 0; t < 4; t++ {
			if out.RoundKeys[t].U != want[t].U || out.RoundKeys[t].V != want[t].V {
				recovered = false
			}
		}
		res.WhitenedRoundKeysRecovered = recovered
		pt := r.Uint64()
		res.WhitenedKeyRecoveryFailed = out.Key != key && !core.Verify(out.Key, pt, vic.EncryptBlock(pt))
	} else if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, core.ErrNoConvergence) {
		// The attack failing outright also demonstrates the defense.
		res.WhitenedKeyRecoveryFailed = true
	}
	return res
}

// PaperFig3WithFlush holds the approximate with-flush series read off
// paper Fig. 3 / Table I row 1 for side-by-side reporting.
var PaperFig3WithFlush = map[int]float64{
	1: 96, 2: 312, 3: 840, 4: 2448, 5: 5864,
}

// PaperTable1 holds the published Table I values (0 = ">1M" drop-out).
var PaperTable1 = map[int][]float64{
	1: {96, 312, 840, 2448, 5864},
	2: {136, 1112, 11440, 188536, 0},
	4: {136, 123848, 0, 0, 0},
	8: {113000, 0, 0, 0, 0},
}

// PaperTable2 holds the published Table II values.
var PaperTable2 = map[string]map[uint64]int{
	"Single-processing SoC": {10: 2, 25: 4, 50: 8},
	"Multi-processing SoC":  {10: 1, 25: 1, 50: 1},
}
