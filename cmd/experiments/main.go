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
// The tables go to stdout, which depends only on the flags; each
// experiment's "(name finished in …)" wall-time line goes to stderr.
// The swept experiments (fig3, table1, table2, recovery) run through
// the internal/campaign orchestrator. For journaled, resumable sweeps
// with streaming result files, use cmd/campaign instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"grinch/internal/experiments"
)

// scale is what the flags select: the options every experiment shares,
// the Fig. 3 and Table I grids, and the output format.
type scale struct {
	opt                           experiments.Options
	fig3Rounds, t1Lines, t1Rounds []int
	csv                           bool
}

// newScale applies -quick to the flag values.
func newScale(opt experiments.Options, quick, csv bool) scale {
	s := scale{
		opt:        opt,
		fig3Rounds: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		t1Lines:    []int{1, 2, 4, 8},
		t1Rounds:   []int{1, 2, 3, 4, 5},
		csv:        csv,
	}
	if quick {
		s.opt.Trials = 1
		s.opt.Budget = 100_000
		s.fig3Rounds = []int{1, 2, 3, 4, 5}
		s.t1Lines = []int{1, 2, 4}
		s.t1Rounds = []int{1, 2, 3}
	}
	return s
}

// drivers lists the experiments in the order "all" runs them.
var drivers = []struct {
	name string
	run  func(io.Writer, scale)
}{
	{"fig3", fig3},
	{"table1", table1},
	{"table2", table2},
	{"recovery", recovery},
	{"counter", counter},
	{"compare", compare},
	{"platform", platformEffort},
}

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
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	if err := render(os.Stdout, os.Stderr, what, newScale(opt, *quick, *csv)); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
}

// render writes experiment what ("all" for every one) to w, each
// followed by a blank line, and each one's wall time to progress.
func render(w, progress io.Writer, what string, s scale) error {
	ran := false
	for _, d := range drivers {
		if what != "all" && what != d.name {
			continue
		}
		start := time.Now() //grinchvet:ignore wallclock progress display only
		d.run(w, s)
		fmt.Fprintln(w)
		//grinchvet:ignore wallclock progress display only
		fmt.Fprintf(progress, "(%s finished in %v)\n", d.name, time.Since(start).Round(time.Millisecond))
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (fig3, table1, table2, recovery, counter, compare, platform, all)", what)
	}
	return nil
}

func platformEffort(w io.Writer, s scale) {
	// The 50 MHz single-SoC window spans ~8 rounds; cap the budget so
	// the drop-out is quick (the point is the contrast, not the exact
	// blow-up size).
	opt := s.opt
	if opt.Budget > 50_000 {
		opt.Budget = 50_000
	}
	fmt.Fprint(w, experiments.RenderPlatformEffort(experiments.PlatformEffort(opt, nil)))
}

func compare(w io.Writer, s scale) {
	fmt.Fprint(w, experiments.RenderCompare(experiments.CompareCiphers(s.opt)))
	fmt.Fprintln(w)
	fmt.Fprint(w, experiments.RenderProbeMethods(experiments.CompareProbeMethods(s.opt)))
}

func fig3(w io.Writer, s scale) {
	rows := experiments.Fig3(s.opt, s.fig3Rounds)
	if s.csv {
		fmt.Fprint(w, experiments.Fig3CSV(rows))
		return
	}
	fmt.Fprint(w, experiments.RenderFig3(rows))
	fmt.Fprintln(w)
	fmt.Fprint(w, experiments.Fig3Chart(rows))
}

func table1(w io.Writer, s scale) {
	rows := experiments.Table1(s.opt, s.t1Lines, s.t1Rounds)
	if s.csv {
		fmt.Fprint(w, experiments.Table1CSV(rows, s.t1Rounds))
		return
	}
	fmt.Fprint(w, experiments.RenderTable1(rows, s.t1Rounds))
}

func table2(w io.Writer, s scale) {
	fmt.Fprint(w, experiments.RenderTable2(experiments.Table2(s.opt, nil)))
}

func recovery(w io.Writer, s scale) {
	fmt.Fprint(w, experiments.RenderRecovery(experiments.FullRecovery(s.opt)))
}

func counter(w io.Writer, s scale) {
	fmt.Fprint(w, experiments.RenderCountermeasures(experiments.Countermeasures(s.opt)))
}
