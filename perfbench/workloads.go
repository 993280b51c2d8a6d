package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/campaignd/worker"
	"grinch/internal/core"
	"grinch/internal/experiments"
	"grinch/internal/obs"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/rng"
)

// workload is one input set: run measures it end to end, trace
// measures it layer by layer.
type workload struct {
	run   func(*bench) error
	trace func(*bench) error
}

// Each workload stresses different layers; README.md says which
// optimisation each one should show and which it should not.
var workloads = map[string]workload{
	"table1":  {runTable1, traceTable1},
	"fleet":   {runFleet, traceFleet},
	"ciphers": {runCiphers, traceCiphers},
	"table2":  {runTable2, traceTable2},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// table1Spec is the Table I first-round grid: 1- and 2-word lines,
// probe rounds 1-3, flush. Its jobs cost ≈120 to ≈37k encryptions.
func table1Spec(cfg config) campaign.Spec {
	return experiments.Table1Spec(experiments.Options{Seed: cfg.seed, Trials: cfg.size.table1Trials}, []int{1, 2}, []int{1, 2, 3})
}

// fleetSpec is a grid of short, uniform probe-round-1 jobs, so the
// coordinator's per-result work rather than the attack dominates.
func fleetSpec(cfg config) campaign.Spec {
	s := experiments.Table1Spec(experiments.Options{Seed: cfg.seed, Trials: cfg.size.fleetJobs}, []int{1}, []int{1})
	s.Name = "fleet"
	return s
}

func table2Spec(cfg config) campaign.Spec {
	return experiments.Table2Spec(experiments.Options{Seed: cfg.seed, Trials: cfg.size.table2Trials}, nil)
}

func cipherOptions(cfg config) experiments.Options {
	return experiments.Options{Seed: cfg.seed, Trials: cfg.size.cipherTrials}
}

// firstJob stamps when the first job of a run was dispatched.
type firstJob struct {
	start time.Time
	at    atomic.Int64 // ns after start, 0 until the first job
}

func (f *firstJob) wrap(exec campaign.Executor) campaign.Executor {
	return func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		if f.at.Load() == 0 {
			f.at.CompareAndSwap(0, int64(time.Since(f.start))|1)
		}
		return exec(j, tr)
	}
}

func (f *firstJob) setup() time.Duration { return time.Duration(f.at.Load()) }

// gridOut is one campaign.Run and its output bytes.
type gridOut struct {
	rep        rep
	jsonl, csv []byte
	results    []campaign.Result // only when traced
}

// runGrid runs spec through campaign.Run the way cmd/campaign -journal
// -out -csv does: JSONL and CSV file sinks and a journal, all in a fresh
// directory. A non-nil tracer wraps the sinks and collects the results.
func (b *bench) runGrid(spec campaign.Spec, exec campaign.Executor, workers int, t *tracer) (gridOut, error) {
	f := &firstJob{start: time.Now()}
	dir, err := os.MkdirTemp(b.cfg.workDir, "grid-")
	if err != nil {
		return gridOut{}, err
	}
	defer os.RemoveAll(dir)
	jf, err := os.Create(filepath.Join(dir, "out.jsonl"))
	if err != nil {
		return gridOut{}, err
	}
	defer jf.Close()
	cf, err := os.Create(filepath.Join(dir, "out.csv"))
	if err != nil {
		return gridOut{}, err
	}
	defer cf.Close()
	sinks := []campaign.Sink{&campaign.JSONLSink{W: jf}, &campaign.CSVSink{W: cf}}
	var col *campaign.Collector
	if t != nil {
		col = &campaign.Collector{}
		sinks = []campaign.Sink{t.sink(sinks[0]), t.sink(sinks[1]), col}
	}
	use := readUsage()
	report, err := campaign.Run(context.Background(), spec, f.wrap(exec), campaign.Options{
		Workers: workers, Sinks: sinks, Journal: filepath.Join(dir, "run.journal"),
	})
	end := time.Since(f.start)
	cpu, stolen := use.since()
	if err != nil {
		return gridOut{}, err
	}
	if report.Failed > 0 {
		b.fail(report.Failed, "%s: %d jobs failed", spec.Name, report.Failed)
	}
	b.attempted += report.Executed
	g := gridOut{
		rep: rep{setup: f.setup(), wall: end - f.setup(), cpu: cpu, stolen: stolen, jobs: report.Executed, encs: report.Encryptions},
	}
	if col != nil {
		g.results = col.Results
	}
	if g.jsonl, err = os.ReadFile(jf.Name()); err != nil {
		return gridOut{}, err
	}
	if g.csv, err = os.ReadFile(cf.Name()); err != nil {
		return gridOut{}, err
	}
	return g, nil
}

// referenceGrid runs spec serially and on the full pool, untimed, and
// checks the two agree byte for byte: the output every timed
// repetition must then reproduce.
func (b *bench) referenceGrid(spec campaign.Spec) (gridOut, error) {
	serial, err := b.runGrid(spec, experiments.Execute, 1, nil)
	if err != nil {
		return gridOut{}, err
	}
	pooled, err := b.runGrid(spec, experiments.Execute, b.cfg.workers, nil)
	if err != nil {
		return gridOut{}, err
	}
	n := pooled.rep.jobs
	b.same(spec.Name+" JSONL, workers=1 vs workers=nproc", serial.jsonl, pooled.jsonl, n)
	b.same(spec.Name+" CSV, workers=1 vs workers=nproc", serial.csv, pooled.csv, n)
	return serial, nil
}

// gridRep is one timed campaign.Run of spec whose output must equal ref.
func (b *bench) gridRep(spec campaign.Spec, exec campaign.Executor, ref gridOut, t *tracer) (gridOut, error) {
	g, err := b.runGrid(spec, exec, b.cfg.workers, t)
	if err != nil {
		return g, err
	}
	b.same(spec.Name+" JSONL", ref.jsonl, g.jsonl, g.rep.jobs)
	b.same(spec.Name+" CSV", ref.csv, g.csv, g.rep.jobs)
	return g, nil
}

func runTable1(b *bench) error {
	spec := table1Spec(b.cfg)
	ref, err := b.referenceGrid(spec)
	if err != nil {
		return err
	}
	return b.repeat(func() (rep, error) {
		g, err := b.gridRep(spec, experiments.Execute, ref, nil)
		return g.rep, err
	})
}

// fleetOut is one distributed run: submit to merge on an in-process
// coordinator with one worker over loopback HTTP.
type fleetOut struct {
	rep     rep
	out     []byte
	shed    uint64
	retries uint64
}

// fleetTimeout bounds one distributed run; a healthy one takes seconds.
const fleetTimeout = 60 * time.Second

// The distributed run uses one single-slot worker per core (nproc
// connections, nproc executing jobs). A single worker with an nproc
// pool stalls the whole pool inside each synchronous report flush, and
// the length of those stalls followed the host's scheduling and I/O
// noise: ten seeds of that set-up spread 35% in jobs_per_s. Shards of
// fleetShardSize jobs and reports of fleetBatch results follow the
// direction campaignd's suggested_shard_size points for sub-ms jobs;
// every result still crosses HTTP, JSON, ingest, the shard journal and
// the merge.
const (
	fleetShardSize = 1250
	fleetBatch     = 64
)

// runFleetOnce times one campaign through campaignd from Submit to
// OnAllMerged. A worker's drain exit can wait on an idle poll, so the
// timing must not stop there. A non-nil tracer wraps the coordinator's
// handler and the workers' transports.
func (b *bench) runFleetOnce(spec campaign.Spec, exec campaign.Executor, t *tracer) (fleetOut, error) {
	f := &firstJob{start: time.Now()}
	dir, err := os.MkdirTemp(b.cfg.workDir, "fleet-")
	if err != nil {
		return fleetOut{}, err
	}
	defer os.RemoveAll(dir)
	merged := make(chan time.Duration, 1)
	srv, err := campaignd.NewServer(campaignd.Options{
		DataDir:     dir,
		OnAllMerged: func() { merged <- time.Since(f.start) },
	})
	if err != nil {
		return fleetOut{}, err
	}
	defer srv.Close()
	var h http.Handler = srv
	if t != nil {
		h = t.handler(srv)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	use := readUsage()
	submitted := time.Since(f.start)
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: fleetShardSize})
	if err != nil {
		return fleetOut{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, b.cfg.workers)
	for w := 0; w < b.cfg.workers; w++ {
		wcfg := worker.Config{
			Server: ts.URL, ID: fmt.Sprintf("perfbench-%d", w), Exec: f.wrap(exec),
			Workers: 1, Batch: fleetBatch, Drain: true,
		}
		if t != nil {
			wcfg.Exec = f.wrap(t.starting(w, exec))
			wcfg.Transport = t.transport(http.DefaultTransport, w)
		}
		go func() { workerErr <- worker.Run(ctx, wcfg) }()
	}
	var done time.Duration
	var runErr error
	timeout := time.NewTimer(fleetTimeout)
	defer timeout.Stop()
	select {
	case done = <-merged:
	case <-timeout.C:
		runErr = fmt.Errorf("fleet run timed out after %s", fleetTimeout)
	}
	cpu, stolen := use.since()
	cancel()
	for w := 0; w < b.cfg.workers; w++ {
		if err := <-workerErr; err != nil && !errors.Is(err, context.Canceled) && runErr == nil {
			runErr = fmt.Errorf("worker: %w", err)
		}
	}
	if runErr != nil {
		return fleetOut{}, runErr
	}
	out, err := srv.Output(resp.ID)
	if err != nil {
		return fleetOut{}, err
	}
	fs := srv.FleetStatus()
	jobs := spec.NumJobs()
	b.attempted += jobs
	if lost := fs.Retry.WorkerShardsLostTotal; lost > 0 {
		b.fail(0, "fleet: %d shards lost", lost)
	}
	return fleetOut{
		rep:     rep{setup: f.setup(), wall: done - submitted, cpu: cpu, stolen: stolen, jobs: jobs},
		out:     out,
		shed:    srv.Shed(),
		retries: fs.Retry.WorkerRetriesTotal,
	}, nil
}

// fleetRep is one timed fleet run checked against the in-process
// reference: the merged JSONL must be byte-identical to campaign.Run's.
func (b *bench) fleetRep(spec campaign.Spec, exec campaign.Executor, ref gridOut, t *tracer) (fleetOut, error) {
	f, err := b.runFleetOnce(spec, exec, t)
	if err != nil {
		return f, err
	}
	b.same("fleet merged JSONL vs campaign.Run", ref.jsonl, f.out, f.rep.jobs)
	f.rep.encs = ref.rep.encs
	return f, nil
}

func runFleet(b *bench) error {
	spec := fleetSpec(b.cfg)
	ref, err := b.runGrid(spec, experiments.Execute, b.cfg.workers, nil)
	if err != nil {
		return err
	}
	return b.repeat(func() (rep, error) {
		f, err := b.fleetRep(spec, experiments.Execute, ref, nil)
		return f.rep, err
	})
}

// cipherRep times one experiments.CompareCiphers call. Its set-up is
// the construction of the three victims' channels and attackers, the
// work that precedes every key recovery.
func (b *bench) cipherRep(opt experiments.Options, ref []experiments.CompareRow) (rep, []experiments.CompareRow, error) {
	setup, err := cipherSetup(opt.Seed)
	if err != nil {
		return rep{}, nil, err
	}
	use := readUsage()
	start := time.Now()
	rows := experiments.CompareCiphers(opt)
	r := rep{setup: setup, wall: time.Since(start)}
	r.cpu, r.stolen = use.since()
	r.jobs, r.encs = b.checkCipherRows(rows, opt.Trials)
	if ref != nil && !reflect.DeepEqual(rows, ref) {
		b.fail(r.jobs, "ciphers: rows differ from the reference run")
	}
	return r, rows, nil
}

// checkCipherRows counts the recoveries and their encryptions and
// fails every row whose keys were not all recovered.
func (b *bench) checkCipherRows(rows []experiments.CompareRow, trials int) (jobs int, encs uint64) {
	if len(rows) != 3 {
		b.fail(trials, "ciphers: %d rows, want GIFT-64, GIFT-128 and PRESENT-80", len(rows))
	}
	for _, row := range rows {
		jobs += trials
		b.attempted += trials
		if !row.AllCorrect || row.Encryptions.N != trials {
			b.fail(trials-row.Encryptions.N, "ciphers: %s recovered %d of %d keys", row.Cipher, row.Encryptions.N, trials)
		}
		encs += uint64(math.Round(row.Encryptions.Mean * float64(row.Encryptions.N)))
	}
	return jobs, encs
}

// cipherSetupReps is how many times one repetition builds the victims;
// the median is its set-up time.
const cipherSetupReps = 9

// cipherSetup builds a GIFT-64, a GIFT-128 and a PRESENT-80 channel
// and attacker, as CompareCiphers does before each recovery.
func cipherSetup(seed uint64) (time.Duration, error) {
	var ds []float64
	for i := 0; i < cipherSetupReps; i++ {
		r := rng.New(seed + uint64(i))
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		cfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}
		start := time.Now()
		ch64, err := oracle.New(key, cfg)
		if err != nil {
			return 0, err
		}
		if _, err := core.NewAttacker(ch64, core.Config{Seed: r.Uint64()}); err != nil {
			return 0, err
		}
		ch128, err := oracle.New128(key, cfg)
		if err != nil {
			return 0, err
		}
		if _, err := core.NewAttacker128(ch128, core.Config{Seed: r.Uint64()}); err != nil {
			return 0, err
		}
		chP, err := oracle.NewPresent(present.NewCipher80(presentKey(key.Lo, key.Hi)), cfg)
		if err != nil {
			return 0, err
		}
		if _, err := core.NewAttackerP(chP, core.Config{Seed: r.Uint64()}); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// presentKey lays two draws out as an 80-bit PRESENT key the way
// CompareCiphers does.
func presentKey(lo, hi uint64) [10]byte {
	var key [10]byte
	key[0], key[1] = byte(hi>>8), byte(hi)
	for j := 0; j < 8; j++ {
		key[2+j] = byte(lo >> (56 - 8*uint(j)))
	}
	return key
}

func runCiphers(b *bench) error {
	opt := cipherOptions(b.cfg)
	_, ref, err := b.cipherRep(opt, nil)
	if err != nil {
		return err
	}
	return b.repeat(func() (rep, error) {
		r, _, err := b.cipherRep(opt, ref)
		return r, err
	})
}

// table2Reference runs the Table II grid untimed, checks it reproduces
// the paper (single SoC 2/4/8, MPSoC 1/1/1) and counts the simulated
// victim encryptions per race through a mirror of the race executor,
// whose output must equal experiments.Execute's.
func (b *bench) table2Reference(spec campaign.Spec) (gridOut, float64, error) {
	ref, err := b.referenceGrid(spec)
	if err != nil {
		return gridOut{}, 0, err
	}
	b.checkTable2(ref.jsonl, ref.rep.jobs)
	t := newTracer(b.cfg)
	mirror, err := b.runGrid(spec, t.race, b.cfg.workers, nil)
	if err != nil {
		return gridOut{}, 0, err
	}
	b.same("table2 race mirror JSONL", ref.jsonl, mirror.jsonl, mirror.rep.jobs)
	return ref, float64(t.sessions) / float64(mirror.rep.jobs), nil
}

// checkTable2 folds a Table II JSONL into rows and compares them with
// the paper's earliest probed rounds.
func (b *bench) checkTable2(jsonl []byte, jobs int) {
	results, err := decodeResults(jsonl)
	if err != nil {
		b.fail(jobs, "table2: %v", err)
		return
	}
	freqs := []uint64{10, 25, 50}
	rows := experiments.Table2FromResults(freqs, results)
	want := [][]int{{2, 4, 8}, {1, 1, 1}}
	for i, row := range rows {
		for j, f := range freqs {
			if row.EarliestRound[f] != want[i][j] {
				b.fail(jobs, "table2: %s at %d MHz probed round %d, the paper reports %d", row.Platform, f, row.EarliestRound[f], want[i][j])
			}
		}
	}
}

func decodeResults(jsonl []byte) ([]campaign.Result, error) {
	var out []campaign.Result
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	for sc.Scan() {
		var r campaign.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func runTable2(b *bench) error {
	spec := table2Spec(b.cfg)
	ref, perRace, err := b.table2Reference(spec)
	if err != nil {
		return err
	}
	return b.repeat(func() (rep, error) {
		g, err := b.gridRep(spec, experiments.Execute, ref, nil)
		g.rep.encs = uint64(math.Round(perRace * float64(g.rep.jobs)))
		return g.rep, err
	})
}
