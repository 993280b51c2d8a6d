package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/core"
	"grinch/internal/experiments"
	"grinch/internal/faults"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
	"grinch/internal/soc"
	"grinch/internal/stats"
)

// The traced run wraps the calls into each layer from outside the
// program: executors that mirror experiments.Execute with the channel
// decorated, a timing campaign.Sink, a timing http.Handler around the
// coordinator and a timing http.RoundTripper in the worker. Every
// traced repetition's output must equal the untraced reference, so the
// numbers describe the program that the end-to-end run measures.

// maxReplayBatches caps the primed batches kept for the GIFT replay.
const maxReplayBatches = 1 << 13

// tracer accumulates one traced run. Executors run on several workers,
// so everything they touch is guarded by mu; each job collects into a
// private chanTap first and merges once when it ends.
type tracer struct {
	cfg config
	mu  sync.Mutex

	jobs, tapped              int
	jobNS                     []float64
	buildNS, attackNS, chanNS time.Duration
	primeNS                   time.Duration
	primed, committed, scalar int
	batches                   []replayBatch
	starts                    map[int][]time.Time // job starts by fleet worker
	jobEnd                    map[int]time.Time
	perKey                    map[string][]float64 // ms per key recovery, by cipher
	raceMS                    map[string][]float64 // ms per race, by platform
	sessions                  uint64
	sinkNS, journalNS         time.Duration
	sinkRecs, journalRecs     int
	serverUS, rttUS           map[string][]float64 // by request class
	rttNS                     time.Duration
	requests, httpBytes       int64
	completes                 map[int][]time.Time // Complete round trips by fleet worker
	shardGaps                 []float64           // ms
	poolBusy, poolCap         time.Duration
	tailMS                    []float64
	shed, retries             uint64
}

func newTracer(cfg config) *tracer {
	return &tracer{
		cfg:       cfg,
		jobEnd:    map[int]time.Time{},
		starts:    map[int][]time.Time{},
		completes: map[int][]time.Time{},
		perKey:    map[string][]float64{},
		raceMS:    map[string][]float64{},
		serverUS:  map[string][]float64{},
		rttUS:     map[string][]float64{},
	}
}

// replayBatch is one PrimeBatch request, kept to replay through the
// GIFT kernels.
type replayBatch struct {
	c           *gift.Cipher64
	first, last int
	n           int
	pts         [64]uint64
}

// probeWindow is the round window an oracle observes for targetRound.
func probeWindow(cfg oracle.Config, targetRound int) (first, last int) {
	first = 1
	if cfg.Flush {
		first = targetRound + 1
	}
	last = targetRound + cfg.ProbeRound
	if last > gift.Rounds64 {
		last = gift.Rounds64
	}
	return first, last
}

// attackConfig mirrors the attack configuration experiments.Execute
// derives from a job.
func attackConfig(job campaign.Job, seed uint64) core.Config {
	cfg := core.Config{
		Seed:          seed,
		TotalBudget:   job.Budget,
		Retry:         core.RetryPolicy{MaxAttempts: job.Retry.Attempts, BackoffPS: job.Retry.BackoffPS},
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

// firstRound mirrors experiments.Execute for first-round jobs, with the
// channel decorated and construction and attack timed apart.
func (t *tracer) firstRound(job campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
	start := time.Now()
	r := rng.New(job.Seed)
	key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	ocfg := oracle.Config{
		ProbeRound: job.Point.ProbeRound,
		Flush:      job.Point.Flush,
		LineWords:  job.Point.LineWords,
		Seed:       r.Uint64(),
	}
	o, err := oracle.New(key, ocfg)
	if err != nil {
		return campaign.Measurement{}, err
	}
	var ch probe.Channel = o
	var inj *faults.Injector
	if !job.FaultPlan.Empty() {
		inj = faults.NewInjector(o, job.FaultPlan, job.Seed)
		ch = inj
	}
	tap := &chanTap{inner: ch, cipher: o.Cipher(), ocfg: ocfg}
	a, err := core.NewAttacker(tap.wrap(), attackConfig(job, r.Uint64()))
	if err != nil {
		return campaign.Measurement{}, err
	}
	tap.armed = true
	built := time.Now()
	out, err := a.AttackRound(1, nil, nil)
	attacked := time.Now()
	var m campaign.Measurement
	if inj != nil {
		m.Faults = inj.Stats().Total()
	}
	switch {
	case err == nil:
		m.Encryptions = out.Encryptions
	case errors.Is(err, core.ErrBudgetExceeded):
		m.DroppedOut, m.Reason, m.Encryptions = true, core.Reason(err), job.Budget
	default:
		m.DroppedOut, m.Reason, m.Encryptions = true, core.Reason(err), ch.Encryptions()
	}
	t.endJob(job.Index, start, built, attacked, tap)
	return m, nil
}

// endJob folds one job's timings and its channel tap into the run.
func (t *tracer) endJob(index int, start, built, attacked time.Time, tap *chanTap) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	t.jobNS = append(t.jobNS, float64(end.Sub(start)))
	t.jobEnd[index] = end
	t.buildNS += built.Sub(start)
	t.attackNS += attacked.Sub(built)
	if tap == nil {
		return
	}
	t.tapped++
	t.chanNS += tap.ns
	t.primeNS += tap.primeNS
	t.primed += tap.primed
	t.committed += tap.committed
	t.scalar += tap.scalar
	for _, rb := range tap.batches {
		if len(t.batches) >= maxReplayBatches {
			break
		}
		t.batches = append(t.batches, rb)
	}
}

// race mirrors experiments.Execute for platform-race jobs, timing each
// race and counting the victim encryptions the platform simulates.
func (t *tracer) race(job campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
	start := time.Now()
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
		return campaign.Measurement{}, fmt.Errorf("perfbench: unknown platform %q", job.Point.Platform)
	}
	built := time.Now()
	round := p.EarliestProbeRound()
	raced := time.Now()
	t.mu.Lock()
	t.sessions += p.Sessions()
	t.raceMS[job.Point.Platform] = append(t.raceMS[job.Point.Platform], float64(raced.Sub(built))/1e6)
	t.mu.Unlock()
	t.endJob(job.Index, start, built, raced, nil)
	return campaign.Measurement{Round: round}, nil
}

// chanTap decorates one job's channel. Collect, CollectMasked,
// CollectErr and PrimeBatch are timed; CollectPrimed commits are only
// counted, so their cost stays in the attack core's self time. wrap
// returns a value with exactly the wrapped channel's capabilities: a
// decorator that hid BatchChannel would silently move the attack onto
// the scalar path.
type chanTap struct {
	inner  probe.Channel
	cipher *gift.Cipher64
	ocfg   oracle.Config
	armed  bool // set once the attacker is built, so its capability probe is not counted

	ns, primeNS               time.Duration
	primed, committed, scalar int
	batches                   []replayBatch
}

func (c *chanTap) Lines() int          { return c.inner.Lines() }
func (c *chanTap) Encryptions() uint64 { return c.inner.Encryptions() }

func (c *chanTap) Collect(pt uint64, targetRound int) probe.LineSet {
	start := time.Now()
	s := c.inner.Collect(pt, targetRound)
	c.scalarDone(start)
	return s
}

func (c *chanTap) scalarDone(start time.Time) {
	c.ns += time.Since(start)
	c.scalar++
}

type maskedTap struct{ c *chanTap }

func (m maskedTap) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	start := time.Now()
	set, mask = m.c.inner.(probe.MaskedChannel).CollectMasked(pt, targetRound)
	m.c.scalarDone(start)
	return set, mask
}

type fallibleTap struct{ c *chanTap }

func (f fallibleTap) CollectErr(pt uint64, targetRound int) (probe.LineSet, error) {
	start := time.Now()
	s, err := f.c.inner.(probe.FallibleChannel).CollectErr(pt, targetRound)
	f.c.scalarDone(start)
	return s, err
}

type batchTap struct{ c *chanTap }

func (b batchTap) PrimeBatch(pts []uint64, targetRound int, raw []probe.LineSet) bool {
	start := time.Now()
	ok := b.c.inner.(probe.BatchChannel).PrimeBatch(pts, targetRound, raw)
	d := time.Since(start)
	c := b.c
	if !c.armed || !ok {
		return ok
	}
	c.ns += d
	c.primeNS += d
	c.primed += len(pts)
	if c.cipher != nil && len(c.batches) < maxReplayBatches {
		rb := replayBatch{c: c.cipher, n: len(pts)}
		rb.first, rb.last = probeWindow(c.ocfg, targetRound)
		copy(rb.pts[:], pts)
		c.batches = append(c.batches, rb)
	}
	return ok
}

func (b batchTap) CollectPrimed(raw probe.LineSet, targetRound int) (set, mask probe.LineSet) {
	b.c.committed++
	return b.c.inner.(probe.BatchChannel).CollectPrimed(raw, targetRound)
}

func (c *chanTap) wrap() probe.Channel {
	_, m := c.inner.(probe.MaskedChannel)
	_, b := c.inner.(probe.BatchChannel)
	_, f := c.inner.(probe.FallibleChannel)
	mt, bt, ft := maskedTap{c}, batchTap{c}, fallibleTap{c}
	switch {
	case m && b && f:
		return struct {
			*chanTap
			maskedTap
			batchTap
			fallibleTap
		}{c, mt, bt, ft}
	case m && b:
		return struct {
			*chanTap
			maskedTap
			batchTap
		}{c, mt, bt}
	case m && f:
		return struct {
			*chanTap
			maskedTap
			fallibleTap
		}{c, mt, ft}
	case b && f:
		return struct {
			*chanTap
			batchTap
			fallibleTap
		}{c, bt, ft}
	case m:
		return struct {
			*chanTap
			maskedTap
		}{c, mt}
	case b:
		return struct {
			*chanTap
			batchTap
		}{c, bt}
	case f:
		return struct {
			*chanTap
			fallibleTap
		}{c, ft}
	}
	return c
}

// sinkTap times a campaign.Sink.
type sinkTap struct {
	campaign.Sink
	t *tracer
}

func (t *tracer) sink(s campaign.Sink) campaign.Sink { return sinkTap{s, t} }

func (s sinkTap) Write(r campaign.Result) error {
	start := time.Now()
	err := s.Sink.Write(r)
	s.t.sinkNS += time.Since(start) // sinks are written from one goroutine
	s.t.sinkRecs++
	return err
}

func (s sinkTap) Close() error {
	start := time.Now()
	err := s.Sink.Close()
	s.t.sinkNS += time.Since(start)
	return err
}

// requestClass names a campaignd API call.
func requestClass(path string) string {
	switch path {
	case campaignd.PathLease:
		return "lease"
	case campaignd.PathResults:
		return "report"
	case campaignd.PathHeartbeat:
		return "heartbeat"
	case campaignd.PathComplete:
		return "complete"
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// handler times the coordinator's handling of each request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		in := r.ContentLength
		if in < 0 {
			in = 0
		}
		t.mu.Lock()
		class := requestClass(r.URL.Path)
		t.serverUS[class] = append(t.serverUS[class], float64(d)/1e3)
		t.requests++
		t.httpBytes += in + cw.n
		t.mu.Unlock()
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// transport times fleet worker w's round trips up to the response
// headers.
func (t *tracer) transport(rt http.RoundTripper, w int) http.RoundTripper {
	return roundTripper(func(r *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := rt.RoundTrip(r)
		end := time.Now()
		t.mu.Lock()
		class := requestClass(r.URL.Path)
		t.rttUS[class] = append(t.rttUS[class], float64(end.Sub(start))/1e3)
		t.rttNS += end.Sub(start)
		if class == "complete" {
			t.completes[w] = append(t.completes[w], end)
		}
		t.mu.Unlock()
		return resp, err
	})
}

// starting records when fleet worker w starts each job.
func (t *tracer) starting(w int, exec campaign.Executor) campaign.Executor {
	return func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		now := time.Now()
		t.mu.Lock()
		t.starts[w] = append(t.starts[w], now)
		t.mu.Unlock()
		return exec(j, tr)
	}
}

// poolStats folds one traced grid's job timeline into the pool metrics:
// busy share of workers × wall, and the tail from the first worker to
// go idle to the last job's end.
func (t *tracer) poolStats(results []campaign.Result, wall time.Duration, workers int) {
	var busy time.Duration
	last := map[int]time.Time{}
	for _, r := range results {
		busy += time.Duration(r.DurationNS)
		if end := t.jobEnd[r.Job]; end.After(last[r.Worker]) {
			last[r.Worker] = end
		}
	}
	t.poolBusy += busy
	t.poolCap += time.Duration(workers) * wall
	if len(last) == workers {
		var ends []time.Time
		for _, e := range last {
			ends = append(ends, e)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
		t.tailMS = append(t.tailMS, float64(ends[len(ends)-1].Sub(ends[0]))/1e6)
	}
	t.jobEnd = map[int]time.Time{}
}

// timeJournal appends a run's results to a fresh journal, the work the
// run's own journal did, and times it per record.
func (t *tracer) timeJournal(spec campaign.Spec, results []campaign.Result) error {
	dir, err := os.MkdirTemp(t.cfg.workDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	j, _, err := campaign.OpenJournal(filepath.Join(dir, "replay.journal"), spec)
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := j.Append(r); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	t.journalNS += time.Since(start)
	t.journalRecs += len(results)
	return nil
}

// replayGift runs the recorded PrimeBatch plaintexts through the
// bitsliced Cipher64.TraceBatch and through the scalar cipher over the
// same round windows, for at least d, and returns ns per block of each.
func replayGift(batches []replayBatch, d time.Duration) (batchNS, scalarNS float64) {
	if len(batches) == 0 {
		return 0, 0
	}
	var st, st2 gift.Batch64
	var sink uint64
	visit := func(_ int, s *gift.Batch64) { sink ^= s[0] }
	var dst []uint64
	measure := func(one func(rb *replayBatch)) float64 {
		blocks := 0
		start := time.Now()
		for blocks == 0 || time.Since(start) < d {
			for i := range batches {
				one(&batches[i])
				blocks += batches[i].n
			}
		}
		return float64(time.Since(start)) / float64(blocks)
	}
	batchNS = measure(func(rb *replayBatch) { rb.c.TraceBatch(&rb.pts, rb.first, rb.last, &st, &st2, visit) })
	scalarNS = measure(func(rb *replayBatch) {
		for _, pt := range rb.pts[:rb.n] {
			dst = rb.c.SBoxInputsAppend(dst[:0], pt, rb.last)
			sink ^= dst[len(dst)-1]
		}
	})
	replaySink = sink
	return batchNS, scalarNS
}

// replaySink keeps the replay's results live.
var replaySink uint64

// compareCiphers mirrors experiments.CompareCiphers with each key
// recovery timed and the GIFT-64 channel decorated.
func (t *tracer) compareCiphers(opt experiments.Options) ([]experiments.CompareRow, error) {
	if opt.Budget == 0 {
		opt.Budget = 1_000_000
	}
	type recovery struct {
		enc    uint64
		passes int
		ok     bool
	}
	run := func(cipher string, keyBits int, seedMix uint64, one func(r *rng.Source) (recovery, error)) (experiments.CompareRow, error) {
		r := rng.New(opt.Seed ^ seedMix)
		row := experiments.CompareRow{Cipher: cipher, KeyBits: keyBits, AllCorrect: true}
		var efforts []uint64
		for i := 0; i < opt.Trials; i++ {
			start := time.Now()
			rec, err := one(r)
			if err != nil {
				return row, err
			}
			ms := float64(time.Since(start)) / 1e6
			t.mu.Lock()
			t.perKey[cipher] = append(t.perKey[cipher], ms)
			t.mu.Unlock()
			if !rec.ok {
				row.AllCorrect = false
				continue
			}
			row.RoundPasses = rec.passes
			efforts = append(efforts, rec.enc)
		}
		row.Encryptions = stats.SummarizeUint64(efforts)
		row.PerKeyBit = row.Encryptions.Median / float64(row.KeyBits)
		return row, nil
	}
	cfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}
	g64, err := run("GIFT-64", 128, 0x64, func(r *rng.Source) (recovery, error) {
		start := time.Now()
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		o, err := oracle.New(key, cfg)
		if err != nil {
			return recovery{}, err
		}
		tap := &chanTap{inner: o, cipher: o.Cipher(), ocfg: cfg}
		a, err := core.NewAttacker(tap.wrap(), core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget})
		if err != nil {
			return recovery{}, err
		}
		tap.armed = true
		built := time.Now()
		res, err := a.RecoverKey()
		t.endJob(-1, start, built, time.Now(), tap)
		return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}, nil
	})
	if err != nil {
		return nil, err
	}
	g128, err := run("GIFT-128", 128, 0x128, func(r *rng.Source) (recovery, error) {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		ch, err := oracle.New128(key, cfg)
		if err != nil {
			return recovery{}, err
		}
		a, err := core.NewAttacker128(ch, core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget})
		if err != nil {
			return recovery{}, err
		}
		res, err := a.RecoverKey128()
		return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}, nil
	})
	if err != nil {
		return nil, err
	}
	p80, err := run("PRESENT-80", 80, 0x80, func(r *rng.Source) (recovery, error) {
		lo, hi := r.Uint64(), r.Uint64()
		key := presentKey(lo, hi)
		ch, err := oracle.NewPresent(present.NewCipher80(key), cfg)
		if err != nil {
			return recovery{}, err
		}
		a, err := core.NewAttackerP(ch, core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget})
		if err != nil {
			return recovery{}, err
		}
		res, err := a.RecoverKey80()
		return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}, nil
	})
	if err != nil {
		return nil, err
	}
	return []experiments.CompareRow{g64, g128, p80}, nil
}

// runtimeSample reads the allocation and GC CPU counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// traceLoop alternates untraced and traced repetitions until the
// measuring time has passed. The untraced ones give the runtime
// metrics and the baseline for the tracing overhead.
func (b *bench) traceLoop(t *tracer, untraced, traced func() (rep, error)) error {
	var plain, tracedRates []float64
	var alloc, gc, total float64
	var plainJobs int
	var wall, cpu time.Duration
	end := time.Now().Add(b.cfg.seconds)
	for len(tracedRates) < b.cfg.minReps || time.Now().Before(end) {
		before := readRuntime()
		u, err := untraced()
		if err != nil {
			return err
		}
		after := readRuntime()
		alloc += after.allocBytes - before.allocBytes
		gc += after.gcCPU - before.gcCPU
		total += after.totalCPU - before.totalCPU
		plainJobs += u.jobs
		plain = append(plain, u.jobsPerSec())
		r, err := traced()
		if err != nil {
			return err
		}
		b.reps = append(b.reps, r)
		tracedRates = append(tracedRates, r.jobsPerSec())
		wall += r.wall
		cpu += r.cpu
	}
	b.layer["runtime.alloc_kb_per_job"] = alloc / 1e3 / float64(plainJobs)
	if total > 0 {
		b.layer["runtime.gc_cpu_frac"] = gc / total
	}
	b.layer["trace.overhead_frac"] = 1 - median(tracedRates)/median(plain)
	t.finish(b, wall, cpu)
	return nil
}

// finish turns the tracer's totals into the per-layer metrics and the
// reconciliation ledger. wall and cpu cover the traced repetitions.
func (t *tracer) finish(b *bench, wall, cpu time.Duration) {
	m := b.layer
	perJob := func(x float64) float64 {
		if t.jobs == 0 {
			return 0
		}
		return x / float64(t.jobs)
	}
	if t.tapped > 0 {
		m["gift.batch64_ns_per_block"], m["gift.scalar_ns_per_block"] = replayGift(t.batches, t.cfg.size.replay)
		if t.primed > 0 {
			m["oracle.prime_ns_per_block"] = float64(t.primeNS) / float64(t.primed)
			m["oracle.prime_useful_frac"] = float64(t.committed) / float64(t.primed)
		}
		m["oracle.scalar_collects_per_job"] = float64(t.scalar) / float64(t.tapped)
		m["core.self_ms_per_job"] = float64(t.attackNS-t.chanNS) / 1e6 / float64(t.tapped)
		m["core.observations_per_job"] = float64(t.committed+t.scalar) / float64(t.tapped)
	}
	m["experiments.job_ms_p50"] = quantile(t.jobNS, 0.5) / 1e6
	m["experiments.job_ms_p99"] = quantile(t.jobNS, 0.99) / 1e6
	m["experiments.job_samples"] = float64(len(t.jobNS))
	m["experiments.build_us_per_job"] = perJob(float64(t.buildNS) / 1e3)
	m["core.gift64_ms_per_key"] = median(t.perKey["GIFT-64"])
	m["core.gift128_ms_per_key"] = median(t.perKey["GIFT-128"])
	m["core.present80_ms_per_key"] = median(t.perKey["PRESENT-80"])
	if t.poolCap > 0 {
		m["campaign.pool_busy_frac"] = float64(t.poolBusy) / float64(t.poolCap)
	}
	m["campaign.tail_ms"] = median(t.tailMS)
	if t.sinkRecs > 0 {
		m["campaign.sink_us_per_result"] = float64(t.sinkNS) / 1e3 / float64(t.sinkRecs)
	}
	if t.journalRecs > 0 {
		m["campaign.journal_us_per_record"] = float64(t.journalNS) / 1e3 / float64(t.journalRecs)
	}
	if t.requests > 0 {
		m["campaignd.lease_us_p50"] = quantile(t.serverUS["lease"], 0.5)
		m["campaignd.report_us_p50"] = quantile(t.serverUS["report"], 0.5)
		m["campaignd.report_us_p99"] = quantile(t.serverUS["report"], 0.99)
		m["campaignd.complete_us_p99"] = quantile(t.serverUS["complete"], 0.99)
		m["campaignd.requests_per_job"] = perJob(float64(t.requests))
		m["campaignd.bytes_per_job"] = perJob(float64(t.httpBytes))
		m["campaignd.shed_total"] = float64(t.shed)
		m["campaignd.retries_total"] = float64(t.retries)
		m["worker.report_rtt_us_p50"] = quantile(t.rttUS["report"], 0.5)
		m["worker.report_rtt_us_p99"] = quantile(t.rttUS["report"], 0.99)
		var flush float64
		for _, us := range t.rttUS["report"] {
			flush += us * 1e3
		}
		m["worker.flush_block_frac"] = flush / float64(time.Duration(b.cfg.workers)*wall)
		m["worker.shard_gap_ms"] = mean(t.shardGaps)
	}
	var race float64
	for p, key := range map[string]string{"soc": "soc.single_ms_per_race", "mpsoc": "soc.mpsoc_ms_per_race"} {
		m[key] = median(t.raceMS[p])
		for _, ms := range t.raceMS[p] {
			race += ms * 1e6
		}
	}
	if race > 0 {
		m["soc.cpu_frac"] = float64(cpu) / race
	}

	// Layer self times for the reconciliation. The worker's round trips
	// include the coordinator's handling, so the handler is not added.
	l := &b.ledger
	l.capacity = time.Duration(b.cfg.workers) * wall
	if len(t.perKey) > 0 {
		l.capacity = wall // CompareCiphers recovers keys serially
	}
	var jobNS time.Duration
	for _, ns := range t.jobNS {
		jobNS += time.Duration(ns)
	}
	l.add("experiments.build", t.buildNS)
	l.add("gift+oracle (channel calls)", t.chanNS)
	l.add("soc (races)", time.Duration(race))
	other := t.attackNS - t.chanNS - time.Duration(race)
	if len(t.perKey) > 0 {
		var g128, p80 float64
		for _, ms := range t.perKey["GIFT-128"] {
			g128 += ms * 1e6
		}
		for _, ms := range t.perKey["PRESENT-80"] {
			p80 += ms * 1e6
		}
		l.add("core+oracle GIFT-128", time.Duration(g128))
		l.add("core+oracle PRESENT-80", time.Duration(p80))
	}
	l.add("core (self)", other)
	l.add("experiments.exec (rest of job)", jobNS-t.buildNS-t.attackNS)
	l.add("campaign.sink", t.sinkNS)
	l.add("campaign.journal (replayed)", t.journalNS)
	l.add("worker HTTP round trips", t.rttNS)
	var attributed time.Duration
	for _, e := range l.entries {
		attributed += e.d
	}
	if l.capacity > 0 {
		m["trace.unattributed_frac"] = 1 - float64(attributed)/float64(l.capacity)
	}
}

// recordShardGaps records, for one fleet run, the time from each
// shard's Complete to the same worker's next job: the lease round trip
// plus re-expanding the spec.
func (t *tracer) recordShardGaps() {
	for w, completes := range t.completes {
		starts := t.starts[w]
		sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
		for _, c := range completes {
			i := sort.Search(len(starts), func(i int) bool { return starts[i].After(c) })
			if i < len(starts) {
				t.shardGaps = append(t.shardGaps, float64(starts[i].Sub(c))/1e6)
			}
		}
	}
	t.starts, t.completes = map[int][]time.Time{}, map[int][]time.Time{}
}

// ledger is the traced run's layer self-time table, reconciled against
// the pool's capacity (workers × wall of the traced repetitions).
type ledger struct {
	capacity time.Duration
	entries  []ledgerEntry
}

type ledgerEntry struct {
	name string
	d    time.Duration
}

func (l *ledger) add(name string, d time.Duration) {
	if d > 0 {
		l.entries = append(l.entries, ledgerEntry{name, d})
	}
}

func (b *bench) printLedger(out io.Writer, name string) {
	l := b.ledger
	if l.capacity <= 0 {
		return
	}
	fmt.Fprintf(out, "reconciliation (%s): layer self time vs workers × wall = %.1f ms\n", name, float64(l.capacity)/1e6)
	var sum time.Duration
	for _, e := range l.entries {
		sum += e.d
		fmt.Fprintf(out, "  %-34s %12.1f ms %7.1f%%\n", e.name, float64(e.d)/1e6, 100*float64(e.d)/float64(l.capacity))
	}
	fmt.Fprintf(out, "  %-34s %12.1f ms %7.1f%%\n", "sum", float64(sum)/1e6, 100*float64(sum)/float64(l.capacity))
	fmt.Fprintf(out, "  %-34s %23.1f%% (target ≤ 15%%, reported, not gated)\n", "trace.unattributed_frac", 100*b.layer["trace.unattributed_frac"])
}

func traceTable1(b *bench) error {
	spec := table1Spec(b.cfg)
	ref, err := b.referenceGrid(spec)
	if err != nil {
		return err
	}
	t := newTracer(b.cfg)
	return b.traceLoop(t, func() (rep, error) {
		g, err := b.gridRep(spec, experiments.Execute, ref, nil)
		return g.rep, err
	}, func() (rep, error) {
		g, err := b.gridRep(spec, t.firstRound, ref, t)
		if err != nil {
			return rep{}, err
		}
		t.poolStats(g.results, g.rep.wall, b.cfg.workers)
		return g.rep, t.timeJournal(spec, g.results)
	})
}

func traceFleet(b *bench) error {
	spec := fleetSpec(b.cfg)
	ref, err := b.runGrid(spec, experiments.Execute, b.cfg.workers, nil)
	if err != nil {
		return err
	}
	t := newTracer(b.cfg)
	return b.traceLoop(t, func() (rep, error) {
		f, err := b.fleetRep(spec, experiments.Execute, ref, nil)
		return f.rep, err
	}, func() (rep, error) {
		f, err := b.fleetRep(spec, t.firstRound, ref, t)
		if err != nil {
			return rep{}, err
		}
		var busy float64
		for _, ns := range t.jobNS[len(t.jobNS)-f.rep.jobs:] {
			busy += ns
		}
		t.poolBusy += time.Duration(busy)
		t.poolCap += time.Duration(b.cfg.workers) * f.rep.wall
		t.shed += f.shed
		t.retries += f.retries
		t.recordShardGaps()
		return f.rep, nil
	})
}

func traceCiphers(b *bench) error {
	opt := cipherOptions(b.cfg)
	_, ref, err := b.cipherRep(opt, nil)
	if err != nil {
		return err
	}
	t := newTracer(b.cfg)
	return b.traceLoop(t, func() (rep, error) {
		r, _, err := b.cipherRep(opt, ref)
		return r, err
	}, func() (rep, error) {
		use := readUsage()
		start := time.Now()
		rows, err := t.compareCiphers(opt)
		if err != nil {
			return rep{}, err
		}
		r := rep{wall: time.Since(start)}
		r.cpu, r.stolen = use.since()
		r.jobs, r.encs = b.checkCipherRows(rows, opt.Trials)
		if !reflect.DeepEqual(rows, ref) {
			b.fail(r.jobs, "ciphers: traced rows differ from experiments.CompareCiphers")
		}
		return r, nil
	})
}

func traceTable2(b *bench) error {
	spec := table2Spec(b.cfg)
	ref, _, err := b.table2Reference(spec)
	if err != nil {
		return err
	}
	t := newTracer(b.cfg)
	return b.traceLoop(t, func() (rep, error) {
		g, err := b.gridRep(spec, experiments.Execute, ref, nil)
		return g.rep, err
	}, func() (rep, error) {
		g, err := b.gridRep(spec, t.race, ref, t)
		if err != nil {
			return rep{}, err
		}
		t.poolStats(g.results, g.rep.wall, b.cfg.workers)
		return g.rep, t.timeJournal(spec, g.results)
	})
}
