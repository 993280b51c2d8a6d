package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/core"
	"grinch/internal/faults"
	"grinch/internal/obs"
	"grinch/internal/oracle"
	"grinch/internal/probe"
	"grinch/internal/rng"
	"grinch/internal/soc"
	"grinch/internal/stats"
)

// Experiment kinds understood by Execute. The paper's evaluation grids
// (Fig. 3, Tables I and II, the full-recovery headline) are expressed
// as campaign specs over these kinds and run through the orchestrator.
const (
	// KindFirstRound measures the encryptions to recover the first 32
	// key bits — the Fig. 3 / Table I metric. Axes: probe round, flush,
	// line words.
	KindFirstRound = "first-round"
	// KindRecovery measures full 128-bit key recovery under ideal
	// probing — the "<400 encryptions" headline. No swept axes.
	KindRecovery = "recovery"
	// KindRace measures the earliest successfully probed round on a
	// live platform model — the Table II metric. Axes: platform, MHz.
	KindRace = "platform-race"
)

// Fig3Spec declares the Fig. 3 sweep: first-round effort vs. probing
// round, with and without flush, at the paper's 1-word line.
func Fig3Spec(opt Options, probeRounds []int) campaign.Spec {
	opt = opt.withDefaults()
	if len(probeRounds) == 0 {
		probeRounds = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	return campaign.Spec{
		Name:        "fig3",
		Kind:        KindFirstRound,
		Seed:        opt.Seed,
		Trials:      opt.Trials,
		Budget:      opt.Budget,
		LineWords:   []int{1},
		Flush:       []bool{true, false},
		ProbeRounds: probeRounds,
	}
}

// Table1Spec declares the Table I sweep: first-round effort across
// cache line sizes and probing rounds, flush enabled.
func Table1Spec(opt Options, lineWords, probeRounds []int) campaign.Spec {
	opt = opt.withDefaults()
	if len(lineWords) == 0 {
		lineWords = []int{1, 2, 4, 8}
	}
	if len(probeRounds) == 0 {
		probeRounds = []int{1, 2, 3, 4, 5}
	}
	return campaign.Spec{
		Name:        "table1",
		Kind:        KindFirstRound,
		Seed:        opt.Seed,
		Trials:      opt.Trials,
		Budget:      opt.Budget,
		LineWords:   lineWords,
		Flush:       []bool{true},
		ProbeRounds: probeRounds,
	}
}

// Table2Spec declares the Table II sweep: the probing race on both
// platform models across clock frequencies.
func Table2Spec(opt Options, freqs []uint64) campaign.Spec {
	opt = opt.withDefaults()
	if len(freqs) == 0 {
		freqs = []uint64{10, 25, 50}
	}
	return campaign.Spec{
		Name:      "table2",
		Kind:      KindRace,
		Seed:      opt.Seed,
		Trials:    opt.Trials,
		Platforms: []string{"soc", "mpsoc"},
		MHz:       freqs,
	}
}

// RecoverySpec declares the headline full-key-recovery runs.
func RecoverySpec(opt Options) campaign.Spec {
	opt = opt.withDefaults()
	return campaign.Spec{
		Name:   "recovery",
		Kind:   KindRecovery,
		Seed:   opt.Seed,
		Trials: opt.Trials,
		Budget: opt.Budget,
	}
}

// SpecByName returns the built-in spec with the given name ("fig3",
// "table1", "table2", "recovery") at its default grid — the presets
// cmd/campaign offers.
func SpecByName(name string, opt Options) (campaign.Spec, error) {
	switch name {
	case "fig3":
		return Fig3Spec(opt, nil), nil
	case "table1":
		return Table1Spec(opt, nil, nil), nil
	case "table2":
		return Table2Spec(opt, nil), nil
	case "recovery":
		return RecoverySpec(opt), nil
	}
	return campaign.Spec{}, fmt.Errorf("experiments: unknown campaign preset %q (fig3, table1, table2, recovery)", name)
}

// Execute is the campaign.Executor for the experiment kinds above.
// Every random decision in a job — victim key, channel noise, attacker
// plaintexts — derives from Job.Seed, so a job's measurement does not
// depend on which worker runs it or when. The tracer (nil when the
// campaign is untraced) is threaded into the channel and attacker so a
// traced run records each job's full trajectory.
func Execute(job campaign.Job, tracer obs.Tracer) (campaign.Measurement, error) {
	switch job.Point.Kind {
	case KindFirstRound:
		return execFirstRound(job, tracer)
	case KindRecovery:
		return execRecovery(job, tracer)
	case KindRace:
		return execRace(job, tracer)
	}
	return campaign.Measurement{}, fmt.Errorf("experiments: unknown job kind %q", job.Point.Kind)
}

// jobChannel builds the job's oracle channel and, when the job carries
// a fault plan, wraps it in a fault injector seeded from the job seed.
// The returned stats closure reads the injector's fault counters (zero
// without a plan), and the encs closure the victim encryption count.
func jobChannel(key bitutil.Word128, ocfg oracle.Config, job campaign.Job, tracer obs.Tracer) (probe.Channel, func() faults.Stats, error) {
	ch, err := oracle.New(key, ocfg)
	if err != nil {
		return nil, nil, err
	}
	ch.SetTracer(tracer)
	if job.FaultPlan.Empty() {
		return ch, func() faults.Stats { return faults.Stats{} }, nil
	}
	inj := faults.NewInjector(ch, job.FaultPlan, job.Seed)
	inj.SetTracer(tracer)
	return inj, inj.Stats, nil
}

// jobAttackConfig maps the job's robustness knobs onto the attack core:
// the spec's retry policy and simulated deadline always apply, and a
// job that actually injects faults additionally gets observation
// quarantine and bounded per-target restarts so destructive noise
// degrades the result instead of wedging the attack.
func jobAttackConfig(job campaign.Job, seed uint64, tracer obs.Tracer) core.Config {
	cfg := core.Config{
		Seed:        seed,
		TotalBudget: job.Budget,
		Tracer:      tracer,
		Retry: core.RetryPolicy{
			MaxAttempts: job.Retry.Attempts,
			BackoffPS:   job.Retry.BackoffPS,
		},
		SimDeadlinePS: job.DeadlinePS,
	}
	if job.ScalarPath {
		cfg.Batch = core.BatchOff
	}
	if !job.FaultPlan.Empty() {
		cfg.Quarantine = true
		cfg.MaxRestarts = 2
	}
	return cfg
}

func execFirstRound(job campaign.Job, tracer obs.Tracer) (campaign.Measurement, error) {
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	cfg := oracle.Config{
		ProbeRound: job.Point.ProbeRound,
		Flush:      job.Point.Flush,
		LineWords:  job.Point.LineWords,
		Seed:       r.Uint64(),
	}
	ch, stats, err := jobChannel(key, cfg, job, tracer)
	if err != nil {
		return campaign.Measurement{}, err
	}
	a, err := core.NewAttacker(ch, jobAttackConfig(job, r.Uint64(), tracer))
	if err != nil {
		return campaign.Measurement{}, err
	}
	out, err := a.AttackRound(1, nil, nil)
	m := campaign.Measurement{Faults: stats().Total(), Retries: a.Retries()}
	if err != nil {
		m.DroppedOut = true
		m.Reason = core.Reason(err)
		// Budget drop-outs report the budget value (the paper's ">1M"
		// cells); earlier aborts report what was actually consumed.
		if errors.Is(err, core.ErrBudgetExceeded) {
			m.Encryptions = job.Budget
		} else {
			m.Encryptions = ch.Encryptions()
		}
		return m, nil
	}
	m.Encryptions = out.Encryptions
	return m, nil
}

func execRecovery(job campaign.Job, tracer obs.Tracer) (campaign.Measurement, error) {
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: r.Uint64()}
	ch, stats, err := jobChannel(key, ocfg, job, tracer)
	if err != nil {
		return campaign.Measurement{}, err
	}
	a, err := core.NewAttacker(ch, jobAttackConfig(job, r.Uint64(), tracer))
	if err != nil {
		return campaign.Measurement{}, err
	}
	out, partial := a.RecoverKeyGraceful()
	m := campaign.Measurement{Faults: stats().Total(), Retries: a.Retries()}
	if partial != nil {
		m.Encryptions = ch.Encryptions()
		m.DroppedOut = true
		m.Partial = true
		m.Reason = partial.Reason
		m.ResolvedRounds = partial.ResolvedRounds
		m.SegmentsConverged = partial.Converged()
		m.Confidence = partial.Confidence()
		return m, nil
	}
	m.Encryptions = out.Encryptions
	m.Correct = out.Key == key
	return m, nil
}

func execRace(job campaign.Job, tracer obs.Tracer) (campaign.Measurement, error) {
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	params := soc.DefaultParams(job.Point.MHz)
	var p soc.Platform
	switch job.Point.Platform {
	case "soc":
		p = soc.NewSingleSoC(key, params)
	case "mpsoc":
		p = soc.NewMPSoC(key, params)
	default:
		return campaign.Measurement{}, fmt.Errorf("experiments: unknown platform %q", job.Point.Platform)
	}
	if tracer != nil {
		// One traced session records the race's observable shape — probe
		// windows, sim time, cache activity. The metric itself comes from
		// EarliestProbeRound's own session, so tracing cannot skew it.
		ch := soc.PlatformChannel{P: p, LineBytes: params.CacheLineBytes, Tracer: tracer}
		ch.Collect(0x0123456789abcdef, 1)
	}
	return campaign.Measurement{Round: p.EarliestProbeRound()}, nil
}

// runCampaign executes a spec on the orchestrator and returns the
// results in job-index order. The experiment drivers call it with no
// journal: the library API is synchronous; checkpoint/resume lives in
// cmd/campaign.
func runCampaign(spec campaign.Spec, workers int) []campaign.Result {
	col := &campaign.Collector{}
	_, err := campaign.Run(context.Background(), spec, Execute,
		campaign.Options{Workers: workers, Sinks: []campaign.Sink{col}})
	if err != nil {
		// Without a journal or cancellable context the only failures
		// are spec validation bugs — programmer errors here.
		panic(err)
	}
	return col.Results
}

// runTrials runs trials on the campaign pool with the given number of
// workers (0 means GOMAXPROCS) and returns their results in trial
// order. Each trial must already hold every random input it needs, so
// the results do not depend on the worker count or on scheduling. A
// trial that panics stops dispatch; once the pool drains, runTrials
// panics with that job's error.
func runTrials[T any](workers int, trials []func() T) []T {
	out := make([]T, len(trials))
	jobs := make([]campaign.Job, len(trials))
	for i := range jobs {
		jobs[i].Index = i
	}
	err := campaign.ExecuteJobs(context.Background(), jobs,
		func(j campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
			out[j.Index] = trials[j.Index]()
			return campaign.Measurement{}, nil
		}, workers,
		func(r campaign.Result) error {
			if r.Failed {
				return fmt.Errorf("experiments: trial %d: %s", r.Job, r.Err)
			}
			return nil
		})
	if err != nil {
		panic(err)
	}
	return out
}

// cellFromResults folds one cell's trial results into the table Cell.
// A failed (panicked) trial counts as a drop-out at the budget, so a
// poisoned cell is visible in the table rather than silently thinner.
func cellFromResults(rs []campaign.Result, budget uint64) Cell {
	var cell Cell
	for _, r := range rs {
		if r.Failed {
			cell.DroppedOut = true
			cell.Trials = append(cell.Trials, budget)
			continue
		}
		if r.DroppedOut {
			cell.DroppedOut = true
		}
		cell.Trials = append(cell.Trials, r.Encryptions)
	}
	if !cell.DroppedOut {
		cell.Median = cell.Summary().Median
	}
	return cell
}

// groupCells buckets results by grid cell, preserving job-index order
// within and across cells.
func groupCells(results []campaign.Result) map[string][]campaign.Result {
	cells := make(map[string][]campaign.Result)
	for _, r := range results {
		k := r.Point.CellKey()
		cells[k] = append(cells[k], r)
	}
	return cells
}

func cellKey(kind string, platform string, mhz uint64, lineWords int, flush bool, probeRound int) string {
	return campaign.Point{
		Kind: kind, Platform: platform, MHz: mhz,
		LineWords: lineWords, Flush: flush, ProbeRound: probeRound,
	}.CellKey()
}

// Fig3FromResults folds campaign results back into Fig. 3 rows.
func Fig3FromResults(opt Options, probeRounds []int, results []campaign.Result) []Fig3Row {
	opt = opt.withDefaults()
	cells := groupCells(results)
	rows := make([]Fig3Row, 0, len(probeRounds))
	for _, pr := range probeRounds {
		rows = append(rows, Fig3Row{
			ProbeRound:   pr,
			WithFlush:    cellFromResults(cells[cellKey(KindFirstRound, "", 0, 1, true, pr)], opt.Budget),
			WithoutFlush: cellFromResults(cells[cellKey(KindFirstRound, "", 0, 1, false, pr)], opt.Budget),
		})
	}
	return rows
}

// Table1FromResults folds campaign results back into Table I rows.
func Table1FromResults(opt Options, lineWords, probeRounds []int, results []campaign.Result) []Table1Row {
	opt = opt.withDefaults()
	cells := groupCells(results)
	rows := make([]Table1Row, 0, len(lineWords))
	for _, lw := range lineWords {
		row := Table1Row{LineWords: lw}
		for _, pr := range probeRounds {
			row.Cells = append(row.Cells,
				cellFromResults(cells[cellKey(KindFirstRound, "", 0, lw, true, pr)], opt.Budget))
		}
		rows = append(rows, row)
	}
	return rows
}

// Table2FromResults folds campaign results back into Table II rows,
// taking the per-cell median round over trials (the race is
// key-independent, so trials agree; the median guards against a future
// noisy platform model).
func Table2FromResults(freqs []uint64, results []campaign.Result) []Table2Row {
	cells := groupCells(results)
	rowFor := func(platform, label string) Table2Row {
		row := Table2Row{Platform: label, EarliestRound: map[uint64]int{}}
		for _, f := range freqs {
			rs := cells[cellKey(KindRace, platform, f, 0, false, 0)]
			rounds := make([]int, 0, len(rs))
			for _, r := range rs {
				if !r.Failed {
					rounds = append(rounds, r.Round)
				}
			}
			if len(rounds) == 0 {
				continue
			}
			sort.Ints(rounds)
			row.EarliestRound[f] = rounds[len(rounds)/2]
		}
		return row
	}
	return []Table2Row{
		rowFor("soc", "Single-processing SoC"),
		rowFor("mpsoc", "Multi-processing SoC"),
	}
}

// RecoveryFromResults folds campaign results into the headline record.
func RecoveryFromResults(results []campaign.Result) RecoveryResult {
	var res RecoveryResult
	var efforts []uint64
	res.AllCorrect = true
	for _, r := range results {
		if r.Failed || r.DroppedOut || !r.Correct {
			res.AllCorrect = false
			res.Failures++
			continue
		}
		efforts = append(efforts, r.Encryptions)
	}
	res.Encryptions = stats.SummarizeUint64(efforts)
	return res
}
