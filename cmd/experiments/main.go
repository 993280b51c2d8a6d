// Command experiments regenerates every table and figure of the GRINCH
// paper's evaluation section.
//
// Usage:
//
//	experiments fig3              # Fig. 3 (effort vs probing round)
//	experiments table1            # Table I (effort vs line size)
//	experiments table2            # Table II (platform probing race)
//	experiments recovery          # headline full-key run
//	experiments counter           # §IV-C countermeasures
//	experiments all               # everything
//
// Flags:
//
//	-trials N   trials per cell (default 3)
//	-budget N   per-attack encryption cap (default 1000000, the paper's
//	            practicality threshold)
//	-seed N     reproducibility seed
//	-workers N  campaign worker pool for the swept experiments and the
//	            comparison and platform-effort extensions (default
//	            GOMAXPROCS; results identical for any value)
//	-csv        emit CSV instead of aligned text (fig3/table1 only)
//	-quick      small budgets for a fast smoke run
//
// The swept experiments (fig3, table1, table2, recovery) run through
// the internal/campaign orchestrator. For journaled, resumable sweeps
// with streaming result files, use cmd/campaign instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"grinch/internal/experiments"
)

func main() {
	var (
		trials  = flag.Int("trials", 3, "trials per experiment cell")
		budget  = flag.Uint64("budget", 1_000_000, "per-attack encryption budget (drop-out threshold)")
		seed    = flag.Uint64("seed", 2021, "reproducibility seed")
		workers = flag.Int("workers", 0, "campaign worker pool (0 = GOMAXPROCS)")
		csv     = flag.Bool("csv", false, "emit CSV (fig3 and table1)")
		quick   = flag.Bool("quick", false, "fast smoke run (1 trial, 100k budget, fewer cells)")
	)
	flag.Parse()

	opt := experiments.Options{Trials: *trials, Budget: *budget, Seed: *seed, Workers: *workers}
	fig3Rounds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	t1Lines := []int{1, 2, 4, 8}
	t1Rounds := []int{1, 2, 3, 4, 5}
	if *quick {
		opt.Trials = 1
		opt.Budget = 100_000
		fig3Rounds = []int{1, 2, 3, 4, 5}
		t1Lines = []int{1, 2, 4}
		t1Rounds = []int{1, 2, 3}
	}

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}

	run := func(name string, fn func()) {
		start := time.Now() //grinchvet:ignore wallclock progress display only
		fn()
		//grinchvet:ignore wallclock progress display only
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	switch what {
	case "fig3":
		run("fig3", func() { fig3(opt, fig3Rounds, *csv) })
	case "table1":
		run("table1", func() { table1(opt, t1Lines, t1Rounds, *csv) })
	case "table2":
		run("table2", func() { table2(opt) })
	case "recovery":
		run("recovery", func() { recovery(opt) })
	case "counter":
		run("counter", func() { counter(opt) })
	case "compare":
		run("compare", func() { compare(opt) })
	case "platform":
		run("platform", func() { platformEffort(opt) })
	case "all":
		run("fig3", func() { fig3(opt, fig3Rounds, *csv) })
		run("table1", func() { table1(opt, t1Lines, t1Rounds, *csv) })
		run("table2", func() { table2(opt) })
		run("recovery", func() { recovery(opt) })
		run("counter", func() { counter(opt) })
		run("compare", func() { compare(opt) })
		run("platform", func() { platformEffort(opt) })
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (fig3, table1, table2, recovery, counter, compare, platform, all)\n", what)
		os.Exit(2)
	}
}

func platformEffort(opt experiments.Options) {
	// The 50 MHz single-SoC window spans ~8 rounds; cap the budget so
	// the drop-out is quick (the point is the contrast, not the exact
	// blow-up size).
	if opt.Budget > 50_000 {
		opt.Budget = 50_000
	}
	fmt.Print(experiments.RenderPlatformEffort(experiments.PlatformEffort(opt, nil)))
}

func compare(opt experiments.Options) {
	fmt.Print(experiments.RenderCompare(experiments.CompareCiphers(opt)))
	fmt.Println()
	fmt.Print(experiments.RenderProbeMethods(experiments.CompareProbeMethods(opt)))
}

func fig3(opt experiments.Options, rounds []int, csv bool) {
	rows := experiments.Fig3(opt, rounds)
	if csv {
		fmt.Print(experiments.Fig3CSV(rows))
		return
	}
	fmt.Print(experiments.RenderFig3(rows))
	fmt.Println()
	fmt.Print(experiments.Fig3Chart(rows))
}

func table1(opt experiments.Options, lines, rounds []int, csv bool) {
	rows := experiments.Table1(opt, lines, rounds)
	if csv {
		fmt.Print(experiments.Table1CSV(rows, rounds))
		return
	}
	fmt.Print(experiments.RenderTable1(rows, rounds))
}

func table2(opt experiments.Options) {
	fmt.Print(experiments.RenderTable2(experiments.Table2(opt, nil)))
}

func recovery(opt experiments.Options) {
	fmt.Print(experiments.RenderRecovery(experiments.FullRecovery(opt)))
}

func counter(opt experiments.Options) {
	fmt.Print(experiments.RenderCountermeasures(experiments.Countermeasures(opt)))
}
