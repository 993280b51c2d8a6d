package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"grinch/internal/faults"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/rng"
)

// toyExec is a deterministic executor: every field of the measurement
// is a pure function of the job seed, with a little seed-dependent CPU
// work so scheduling actually interleaves. A traced run gets a short
// seed-determined event stream.
func toyExec(job Job, tracer obs.Tracer) (Measurement, error) {
	r := rng.New(job.Seed)
	n := 100 + r.Intn(1000)
	acc := uint64(0)
	for i := 0; i < n*50; i++ {
		acc += r.Uint64() >> 60
	}
	if tracer != nil {
		tracer.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: 1})
		tracer.Emit(obs.Event{Kind: obs.KindCandidateUpdate, Enc: 1, Survivors: n % 16, Observations: uint64(n)})
		tracer.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: 1})
	}
	return Measurement{Encryptions: uint64(n) + acc%2, DroppedOut: n > 1050, Correct: n%2 == 0}, nil
}

func testSpec() Spec {
	return Spec{
		Name:        "toy",
		Kind:        "toy",
		Seed:        2021,
		Trials:      3,
		Budget:      1000,
		LineWords:   []int{1, 2},
		Flush:       []bool{true, false},
		ProbeRounds: []int{1, 2, 3},
	}
}

func TestExpansion(t *testing.T) {
	spec := testSpec()
	jobs := spec.Jobs()
	if len(jobs) != spec.NumJobs() || len(jobs) != 2*2*3*3 {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), 2*2*3*3)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if j.Seed != rng.Derive(spec.Seed, uint64(i)) {
			t.Fatalf("job %d seed not derived from (campaign seed, index)", i)
		}
		if j.Budget != spec.Budget {
			t.Fatalf("job %d lost the budget", i)
		}
	}
	// Canonical nesting: trials innermost, then probe rounds.
	if jobs[0].Point.Trial != 0 || jobs[1].Point.Trial != 1 || jobs[3].Point.Trial != 0 {
		t.Fatalf("trials not innermost: %+v", jobs[:4])
	}
	if jobs[0].Point.ProbeRound != 1 || jobs[3].Point.ProbeRound != 2 {
		t.Fatalf("probe rounds not second-innermost: %+v", jobs[:4])
	}
	// Expansion must be reproducible.
	again := spec.Jobs()
	if !reflect.DeepEqual(jobs, again) {
		t.Fatal("expansion is not deterministic")
	}
}

// TestFaultAxisExpansion pins the fault-plan axis: each named plan is
// one grid coordinate nested between probe rounds and trials, and every
// job carries its plan plus the spec-level retry/deadline knobs.
func TestFaultAxisExpansion(t *testing.T) {
	spec := testSpec()
	spec.FaultPlans = []faults.Plan{
		{Name: "mild", Faults: []faults.Fault{{Kind: faults.KindDrop, Probability: 0.1}}},
		{Name: "harsh", Faults: []faults.Fault{{Kind: faults.KindDrop, Probability: 0.5}}},
	}
	spec.Retry = &RetrySpec{Attempts: 3, BackoffPS: 100}
	spec.DeadlinePS = 5000
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	base := testSpec().NumJobs()
	jobs := spec.Jobs()
	if len(jobs) != spec.NumJobs() || len(jobs) != 2*base {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), 2*base)
	}
	// Nesting: trials innermost, fault plans immediately outside them.
	if jobs[0].Point.Fault != "mild" || jobs[3].Point.Fault != "harsh" || jobs[6].Point.Fault != "mild" {
		t.Fatalf("fault axis not between probe rounds and trials: %v %v %v",
			jobs[0].Point, jobs[3].Point, jobs[6].Point)
	}
	for i, j := range jobs {
		if j.FaultPlan.Name != j.Point.Fault {
			t.Fatalf("job %d carries plan %q for point fault %q", i, j.FaultPlan.Name, j.Point.Fault)
		}
		if j.Retry != (RetrySpec{Attempts: 3, BackoffPS: 100}) || j.DeadlinePS != 5000 {
			t.Fatalf("job %d lost retry/deadline: %+v", i, j)
		}
		if j.Seed != rng.Derive(spec.Seed, uint64(i)) {
			t.Fatalf("job %d seed not derived from index", i)
		}
	}
	// The fault name is part of the cell identity, so the two plans'
	// trials aggregate into distinct cells.
	if jobs[0].Point.CellKey() == jobs[3].Point.CellKey() {
		t.Fatal("fault plans share a cell key")
	}
	// The axis changes the fingerprint; an unfaulted spec keeps its
	// pre-axis canonical JSON (pointer/omitempty fields stay absent).
	if spec.Fingerprint() == testSpec().Fingerprint() {
		t.Fatal("fault axis not part of the fingerprint")
	}
	b, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fault_plans", "retry", "deadline_ps"} {
		if strings.Contains(string(b), key) {
			t.Fatalf("unfaulted spec JSON mentions %q: %s", key, b)
		}
	}
}

// TestJobsRangeMatchesNestedOrder pins the canonical order with every
// axis swept: Jobs equals a plain nested-loop expansion (platforms
// outermost, trials innermost), and JobsRange(a, b) is exactly
// Jobs()[a:b] for every range, clipped to the grid.
func TestJobsRangeMatchesNestedOrder(t *testing.T) {
	spec := Spec{
		Name: "all-axes", Kind: "toy", Seed: 9, Trials: 2, Budget: 50,
		Platforms: []string{"soc", "mpsoc"}, MHz: []uint64{10, 25}, LineWords: []int{1, 2},
		Flush: []bool{true, false}, ProbeRounds: []int{1, 3},
		FaultPlans: []faults.Plan{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	}
	var want []Point
	for _, pl := range spec.Platforms {
		for _, f := range spec.MHz {
			for _, lw := range spec.LineWords {
				for _, fl := range spec.Flush {
					for _, pr := range spec.ProbeRounds {
						for _, plan := range spec.FaultPlans {
							for trial := 0; trial < spec.Trials; trial++ {
								want = append(want, Point{Kind: spec.Kind, Platform: pl, MHz: f, LineWords: lw,
									Flush: fl, ProbeRound: pr, Fault: plan.Name, Trial: trial})
							}
						}
					}
				}
			}
		}
	}
	jobs := spec.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("expanded %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.Index != i || j.Point != want[i] || j.FaultPlan.Name != want[i].Fault || j.Seed != DeriveSeed(spec.Seed, i) {
			t.Fatalf("job %d = %+v, want point %+v", i, j, want[i])
		}
	}
	n := len(jobs)
	for a := -1; a <= n+1; a++ {
		for b := a - 1; b <= n+1; b++ {
			got := spec.JobsRange(a, b)
			lo, hi := min(max(a, 0), n), min(max(b, 0), n)
			if lo >= hi {
				if len(got) != 0 {
					t.Fatalf("JobsRange(%d, %d) expanded %d jobs, want none", a, b, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, jobs[lo:hi]) {
				t.Fatalf("JobsRange(%d, %d) differs from Jobs()[%d:%d]", a, b, lo, hi)
			}
		}
	}
}

// TestSpecValidatesFaultAxis covers the axis-level rejections: invalid
// plans, missing and duplicate names, negative retry attempts.
func TestSpecValidatesFaultAxis(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) {
			s.FaultPlans = []faults.Plan{{Name: "x", Faults: []faults.Fault{{Kind: "gamma-ray"}}}}
		},
		func(s *Spec) {
			s.FaultPlans = []faults.Plan{{Faults: []faults.Fault{{Kind: faults.KindDrop}}}}
		},
		func(s *Spec) {
			s.FaultPlans = []faults.Plan{{Name: "a"}, {Name: "a"}}
		},
		func(s *Spec) { s.Retry = &RetrySpec{Attempts: -1} },
	}
	for i, mutate := range bad {
		spec := testSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSpecFingerprintDistinguishesGrids(t *testing.T) {
	a, b := testSpec(), testSpec()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal specs disagree on fingerprint")
	}
	b.ProbeRounds = []int{1, 2}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different grids share a fingerprint")
	}
	// Trials=0 normalizes to 1, so the two spell the same campaign.
	c := testSpec()
	c.Trials = 0
	d := testSpec()
	d.Trials = 1
	if c.Fingerprint() != d.Fingerprint() {
		t.Fatal("normalized specs disagree on fingerprint")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"kind":"toy","probe_round":[1]}`)); err == nil {
		t.Fatal("misspelled axis accepted")
	}
	s, err := ParseSpec([]byte(`{"name":"x","kind":"toy","seed":7,"probe_rounds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.ProbeRounds) != 2 {
		t.Fatalf("parsed spec %+v", s)
	}
}

// run executes the toy campaign and returns the collector results plus
// the deterministic JSONL bytes.
func runToy(t *testing.T, workers int, opts Options) ([]Result, []byte) {
	t.Helper()
	col := &Collector{}
	var jsonl bytes.Buffer
	opts.Workers = workers
	opts.Sinks = append(opts.Sinks, col, &JSONLSink{W: &jsonl})
	rep, err := Run(context.Background(), testSpec(), toyExec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != rep.Total {
		t.Fatalf("delivered %d of %d", rep.Delivered, rep.Total)
	}
	return col.Results, jsonl.Bytes()
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	res1, out1 := runToy(t, 1, Options{})
	res8, out8 := runToy(t, 8, Options{})
	// Results must agree field-for-field once timing metadata is
	// stripped — it is the only part execution order may touch.
	strip := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		for i := range out {
			out[i] = out[i].Canonical()
		}
		return out
	}
	if !reflect.DeepEqual(strip(res1), strip(res8)) {
		t.Fatal("results differ between -workers=1 and -workers=8")
	}
	if !bytes.Equal(out1, out8) {
		t.Fatal("JSONL output not byte-identical between -workers=1 and -workers=8")
	}
}

// TestTraceDeterminismAcrossWorkerCounts extends the determinism
// contract to the event trace: the JSONL trace bytes must be identical
// for any worker count, and every event must carry its job's index so
// per-job streams never interleave.
func TestTraceDeterminismAcrossWorkerCounts(t *testing.T) {
	traceToy := func(workers int) []byte {
		var buf bytes.Buffer
		w := obs.NewWriter(&buf)
		_, err := Run(context.Background(), testSpec(), toyExec,
			Options{Workers: workers, Trace: w})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t1 := traceToy(1)
	t8 := traceToy(8)
	if !bytes.Equal(t1, t8) {
		t.Fatal("trace JSONL not byte-identical between -workers=1 and -workers=8")
	}
	if bytes.Equal(traceToy(8), nil) {
		t.Fatal("traced run produced no events")
	}
	events, err := obs.ReadAll(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	total := testSpec().NumJobs()
	if len(events) != 3*total {
		t.Fatalf("trace holds %d events, want %d", len(events), 3*total)
	}
	for i, e := range events {
		if want := i / 3; e.Job != want {
			t.Fatalf("event %d stamped job %d, want %d (jobs out of index order)", i, e.Job, want)
		}
	}
}

// TestTraceSkipsJournalReplayedJobs pins the documented resume
// semantics: replayed jobs were not re-executed, so they contribute no
// events, and the trace of a resumed run covers only the remainder.
func TestTraceSkipsJournalReplayedJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "toy.journal")
	if _, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	rep, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 2, Journal: journal, Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 {
		t.Fatalf("replay executed %d jobs", rep.Executed)
	}
	if buf.Len() != 0 {
		t.Fatalf("fully replayed run emitted %d trace bytes, want 0", buf.Len())
	}
}

// TestCanonicalStripsExactlyTimingFields pins the determinism contract
// to the Result type: Canonical must zero DurationNS and Worker and
// nothing else, so a future field added to Result is deterministic by
// default and timing can never leak back into canonical output.
func TestCanonicalStripsExactlyTimingFields(t *testing.T) {
	r := Result{
		Job:   3,
		Point: Point{Kind: "noise", Platform: "soc", MHz: 50, Trial: 2},
		Seed:  9,
		Measurement: Measurement{
			Encryptions: 42, DroppedOut: true, Correct: true, Round: 4,
		},
		Failed:     true,
		Err:        "injected",
		DurationNS: 12345,
		Worker:     7,
	}
	c := r.Canonical()
	if c.DurationNS != 0 || c.Worker != 0 {
		t.Fatalf("Canonical kept timing metadata: %+v", c)
	}
	want := r
	want.DurationNS = 0
	want.Worker = 0
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("Canonical altered a deterministic field:\ngot  %+v\nwant %+v", c, want)
	}
}

// TestTimingNeverReachesDeterministicBytes is the regression test for
// the wall-clock readings in the runner: the journal records real
// durations, but a full replay through the sinks must produce the same
// bytes as a fresh run, and the deterministic JSONL stream must not
// mention the timing keys at all.
func TestTimingNeverReachesDeterministicBytes(t *testing.T) {
	_, fresh := runToy(t, 4, Options{})

	journal := filepath.Join(t.TempDir(), "toy.journal")
	if _, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 4, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	rep, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 4, Journal: journal, Sinks: []Sink{&JSONLSink{W: &replay}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 {
		t.Fatalf("replay executed %d jobs, want 0 (all journaled)", rep.Executed)
	}
	if !bytes.Equal(fresh, replay.Bytes()) {
		t.Fatal("journal-replayed JSONL differs from a fresh run's bytes")
	}
	for _, key := range []string{"duration_ns", "worker"} {
		if bytes.Contains(fresh, []byte(key)) {
			t.Fatalf("deterministic JSONL stream contains timing key %q", key)
		}
	}
}

func TestPanicBecomesFailedResult(t *testing.T) {
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		if job.Index == 7 {
			panic("injected")
		}
		if job.Index == 9 {
			return Measurement{}, fmt.Errorf("injected error")
		}
		return toyExec(job, tr)
	}
	col := &Collector{}
	rep, err := Run(context.Background(), testSpec(), exec, Options{Workers: 4, Sinks: []Sink{col}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 2 {
		t.Fatalf("reported %d failures, want 2", rep.Failed)
	}
	if r := col.Results[7]; !r.Failed || !strings.Contains(r.Err, "panic: injected") {
		t.Fatalf("job 7: %+v", r)
	}
	if r := col.Results[9]; !r.Failed || r.Err != "injected error" {
		t.Fatalf("job 9: %+v", r)
	}
	if col.Results[8].Failed {
		t.Fatal("healthy neighbor job marked failed")
	}
}

// TestPanicsDontWedgeWorkerPool floods the pool with panicking jobs:
// every job must still be delivered (the pool drains instead of
// deadlocking), failures must be counted, and a journal resume must
// replay the failed cells into the sinks — the record -keep-going's
// exit decision is based on — without re-executing them.
func TestPanicsDontWedgeWorkerPool(t *testing.T) {
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		if job.Index%2 == 0 {
			panic(fmt.Sprintf("boom %d", job.Index))
		}
		return toyExec(job, tr)
	}
	journal := filepath.Join(t.TempDir(), "toy.journal")
	total := testSpec().NumJobs()
	col := &Collector{}
	rep, err := Run(context.Background(), testSpec(), exec,
		Options{Workers: 4, Journal: journal, Sinks: []Sink{col}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != total || len(col.Results) != total {
		t.Fatalf("delivered %d of %d results", rep.Delivered, total)
	}
	if rep.Failed != (total+1)/2 {
		t.Fatalf("reported %d failures, want %d", rep.Failed, (total+1)/2)
	}
	for i, r := range col.Results {
		if want := i%2 == 0; r.Failed != want {
			t.Fatalf("job %d failed=%v, want %v (%+v)", i, r.Failed, want, r)
		}
	}

	// Resume: nothing re-executes, and the sinks still see every failed
	// cell, so a driver like cmd/campaign's -keep-going logic reaches
	// the same exit decision on a resumed run.
	col2 := &Collector{}
	rep2, err := Run(context.Background(), testSpec(), exec,
		Options{Workers: 4, Journal: journal, Sinks: []Sink{col2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Executed != 0 {
		t.Fatalf("resume re-executed %d jobs", rep2.Executed)
	}
	failed := 0
	for _, r := range col2.Results {
		if r.Failed {
			failed++
		}
	}
	if failed != (total+1)/2 {
		t.Fatalf("replay delivered %d failed cells, want %d", failed, (total+1)/2)
	}
}

func TestJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "toy.journal")
	spec := testSpec()
	total := spec.NumJobs()

	// Invocation log: which job indices actually executed, per run.
	var mu sync.Mutex
	executed := map[int]int{}
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		mu.Lock()
		executed[job.Index]++
		mu.Unlock()
		return toyExec(job, tr)
	}

	// First run: a sink cancels once a third of the grid has been
	// delivered; jobs past that third hold until then, so the cut lands
	// mid-grid however the workers are scheduled.
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{
		Workers: 4,
		Journal: journal,
		Sinks:   []Sink{&cancelAfter{n: total / 3, cancel: cancel}},
	}
	held := func(job Job, tr obs.Tracer) (Measurement, error) {
		if job.Index >= total/3 {
			<-ctx.Done()
		}
		return exec(job, tr)
	}
	rep, err := Run(ctx, spec, held, opts)
	if err != context.Canceled {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if rep.Executed == 0 || rep.Executed == total {
		t.Fatalf("interruption executed %d of %d jobs", rep.Executed, total)
	}
	firstRun := rep.Executed

	// Second run: must execute exactly the remainder, no job twice.
	col := &Collector{}
	var jsonl bytes.Buffer
	rep2, err := Run(context.Background(), spec, exec,
		Options{Workers: 4, Journal: journal, Sinks: []Sink{col, &JSONLSink{W: &jsonl}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != firstRun {
		t.Fatalf("resume skipped %d jobs, journal held %d", rep2.Skipped, firstRun)
	}
	if rep2.Executed != total-firstRun {
		t.Fatalf("resume executed %d jobs, want %d", rep2.Executed, total-firstRun)
	}
	mu.Lock()
	for idx, n := range executed {
		if n != 1 {
			t.Fatalf("job %d executed %d times across interrupt+resume", idx, n)
		}
	}
	if len(executed) != total {
		t.Fatalf("only %d of %d jobs ever executed", len(executed), total)
	}
	mu.Unlock()

	// The resumed campaign's sink output must match a clean run's.
	_, cleanJSONL := runToy(t, 4, Options{})
	if !bytes.Equal(jsonl.Bytes(), cleanJSONL) {
		t.Fatal("resumed JSONL differs from a clean run")
	}
}

// cancelAfter is a sink that cancels the run once n results have been
// delivered.
type cancelAfter struct {
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAfter) Begin(Spec, int) error { return nil }

func (c *cancelAfter) Write(Result) error {
	if c.seen++; c.seen >= c.n {
		c.cancel()
	}
	return nil
}

func (c *cancelAfter) Close() error { return nil }

// failingSink refuses every Write.
type failingSink struct{}

func (failingSink) Begin(Spec, int) error { return nil }
func (failingSink) Write(Result) error    { return errors.New("disk full") }
func (failingSink) Close() error          { return nil }

// TestSinkErrorStopsDispatch: a sink write error stops dispatch at
// once, so the pool drains the jobs in flight and runs no more of the
// grid. Every job but 0 waits until job 0 has executed, so the first
// Write (index order) comes within a few jobs.
func TestSinkErrorStopsDispatch(t *testing.T) {
	spec := Spec{Name: "stop", Kind: "toy", Seed: 5, Trials: 64}
	const workers = 2
	var ran atomic.Int32
	first := make(chan struct{})
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		ran.Add(1)
		if job.Index == 0 {
			defer close(first)
		} else {
			<-first
		}
		return toyExec(job, tr)
	}
	rep, err := Run(context.Background(), spec, exec, Options{Workers: workers, Sinks: []Sink{failingSink{}}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Run = %v, want the sink's error", err)
	}
	if n := ran.Load(); n > 2*workers+1 {
		t.Fatalf("executor ran %d of %d jobs after the first sink write failed, want at most %d", n, spec.NumJobs(), 2*workers+1)
	}
	if rep.Delivered != 0 {
		t.Fatalf("delivered %d results through a failing sink", rep.Delivered)
	}
}

// TestTraceKeepsFailedJobEvents: a job that errors or panics after
// emitting still delivers its buffered events, in index order.
func TestTraceKeepsFailedJobEvents(t *testing.T) {
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		tr.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: 1})
		switch job.Index % 3 {
		case 1:
			return Measurement{}, errors.New("failed")
		case 2:
			panic("boom")
		}
		return Measurement{}, nil
	}
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	rep, err := Run(context.Background(), testSpec(), exec, Options{Workers: 4, Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total := testSpec().NumJobs(); len(events) != total || rep.Failed != total*2/3 {
		t.Fatalf("%d events and %d failures from %d jobs, want %d and %d", len(events), rep.Failed, total, total, total*2/3)
	}
	for i, e := range events {
		if e.Job != i {
			t.Fatalf("event %d stamped job %d", i, e.Job)
		}
	}
}

func TestJournalRejectsForeignSpec(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "toy.journal")
	if _, err := Run(context.Background(), testSpec(), toyExec, Options{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Seed = 9999
	if _, err := Run(context.Background(), other, toyExec, Options{Workers: 2, Journal: journal}); err == nil {
		t.Fatal("journal accepted a different campaign")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "toy.journal")
	if _, err := Run(context.Background(), testSpec(), toyExec, Options{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	// Simulate a hard kill mid-append: truncate the last record.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	var ran []int
	var mu sync.Mutex
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		mu.Lock()
		ran = append(ran, job.Index)
		mu.Unlock()
		return toyExec(job, tr)
	}
	rep, err := Run(context.Background(), testSpec(), exec, Options{Workers: 2, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the torn job re-ran.
	if rep.Executed != 1 || len(ran) != 1 {
		t.Fatalf("torn journal re-ran %d jobs (%v), want 1", rep.Executed, ran)
	}
}

// TestJournalTornTailResumesOnce pins the torn-tail repair: the resume
// after a hard kill must cut the fragment off before appending, or the
// re-run job's record is glued onto it and lost, and the following
// resume executes that job yet again.
func TestJournalTornTailResumesOnce(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "toy.journal")
	if _, err := Run(context.Background(), testSpec(), toyExec, Options{Workers: 2, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 0} {
		rep, err := Run(context.Background(), testSpec(), toyExec, Options{Workers: 2, Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executed != want {
			t.Fatalf("resume %d re-executed %d jobs, want %d", i+1, rep.Executed, want)
		}
	}
}

func TestAggregatorGroupsCells(t *testing.T) {
	agg := &Aggregator{}
	_, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 4, Sinks: []Sink{agg}})
	if err != nil {
		t.Fatal(err)
	}
	cells := agg.Cells()
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	for _, c := range cells {
		if len(c.Trials) != 3 {
			t.Fatalf("cell %s has %d trials, want 3", c.Point, len(c.Trials))
		}
		if c.Point.Trial != 0 {
			t.Fatalf("cell point retains a trial index: %+v", c.Point)
		}
		if s := c.Summary(); s.N != 3 || s.Median == 0 {
			t.Fatalf("cell summary %+v", s)
		}
	}
}

func TestCSVSinkShape(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 2, Sinks: []Sink{&CSVSink{W: &buf}}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+testSpec().NumJobs() {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,kind,platform") {
		t.Fatalf("CSV header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != len(csvHeader)-1 {
			t.Fatalf("CSV row has %d fields: %q", n+1, l)
		}
	}
}

// TestMetricsSnapshot: after a run the registry holds the grid size,
// every job accounted once by status, no job left in flight, the
// report's encryption total and one encryption observation per job.
func TestMetricsSnapshot(t *testing.T) {
	reg := metrics.New()
	rep, err := Run(context.Background(), testSpec(), toyExec,
		Options{Workers: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	total := testSpec().NumJobs()
	if got := metrics.Total(snap, "campaign_jobs").Gauge; got != int64(total) {
		t.Fatalf("campaign_jobs = %d, want %d", got, total)
	}
	if got := metrics.Total(snap, "campaign_jobs_total").Value; got != uint64(total) {
		t.Fatalf("campaign_jobs_total sums to %d, want %d", got, total)
	}
	if got := metrics.Total(snap, "campaign_jobs_in_flight").Gauge; got != 0 {
		t.Fatalf("campaign_jobs_in_flight = %d after the run, want 0", got)
	}
	encs := metrics.Total(snap, "campaign_encryptions_total").Value
	if encs == 0 || encs != rep.Encryptions {
		t.Fatalf("campaign_encryptions_total = %d, Report.Encryptions = %d", encs, rep.Encryptions)
	}
	if n := metrics.Total(snap, "campaign_job_encryptions").Count(); n != uint64(total) {
		t.Fatalf("campaign_job_encryptions observed %d jobs, want %d", n, total)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Name: "nokind"}, toyExec, Options{}); err == nil {
		t.Fatal("kindless spec accepted")
	}
}

// TestFailureAccountingAcrossResume pins the -keep-going accounting
// contract: a failed job is counted exactly once no matter how many
// runs replay it from the journal. Replayed failures land in
// Report.FailedReplayed (never in Report.Failed), and the registry's
// campaign_jobs_total{status} stays a partition of the grid: every job
// is counted once, by outcome, whether it was replayed or executed.
func TestFailureAccountingAcrossResume(t *testing.T) {
	spec := testSpec()
	total := spec.NumJobs()
	jobs := spec.Jobs()
	journal := filepath.Join(t.TempDir(), "toy.journal")

	// Hand-journal the first half of the grid: every third job failed.
	j, prior, err := OpenJournal(journal, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(prior))
	}
	half := total / 2
	priorFailed := 0
	for i := 0; i < half; i++ {
		r := Result{Job: jobs[i].Index, Point: jobs[i].Point, Seed: jobs[i].Seed}
		if i%3 == 0 {
			r.Failed = true
			r.Err = "injected (previous run)"
			priorFailed++
		} else {
			m, _ := toyExec(jobs[i], nil)
			r.Measurement = m
		}
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the second half executes, with fresh failures of its own.
	wantExecFailed := 0
	for i := half; i < total; i++ {
		if i%5 == 0 {
			wantExecFailed++
		}
	}
	exec := func(job Job, tr obs.Tracer) (Measurement, error) {
		if job.Index < half {
			t.Errorf("journaled job %d re-executed", job.Index)
		}
		if job.Index%5 == 0 {
			return Measurement{}, fmt.Errorf("injected (this run)")
		}
		return toyExec(job, tr)
	}
	reg := metrics.New()
	rep, err := Run(context.Background(), spec, exec,
		Options{Workers: 4, Journal: journal, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != half || rep.Executed != total-half {
		t.Fatalf("skipped %d executed %d, want %d and %d", rep.Skipped, rep.Executed, half, total-half)
	}
	if rep.FailedReplayed != priorFailed {
		t.Fatalf("FailedReplayed = %d, want %d", rep.FailedReplayed, priorFailed)
	}
	if rep.Failed != wantExecFailed {
		t.Fatalf("Failed = %d, want %d (executed failures only)", rep.Failed, wantExecFailed)
	}
	checkPartition(t, reg, rep, priorFailed+wantExecFailed)

	// A second resume replays everything: all failures move to
	// FailedReplayed, none are executed, and the failed count stays the
	// same — not doubled.
	reg2 := metrics.New()
	rep2, err := Run(context.Background(), spec, exec,
		Options{Workers: 4, Journal: journal, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Executed != 0 || rep2.Failed != 0 {
		t.Fatalf("full replay executed %d (failed %d), want none", rep2.Executed, rep2.Failed)
	}
	if rep2.FailedReplayed != priorFailed+wantExecFailed {
		t.Fatalf("full replay FailedReplayed = %d, want %d", rep2.FailedReplayed, priorFailed+wantExecFailed)
	}
	checkPartition(t, reg2, rep2, priorFailed+wantExecFailed)
}

// checkPartition asserts that a completed run's campaign_jobs_total
// statuses sum to the grid size with each failed job counted once, and
// that campaign_jobs_replayed_total equals the report's replay count.
func checkPartition(t *testing.T, reg *metrics.Registry, rep Report, wantFailed int) {
	t.Helper()
	snap := reg.Snapshot()
	if got := metrics.Total(snap, "campaign_jobs_total").Value; got != uint64(rep.Total) {
		t.Errorf("campaign_jobs_total sums to %d over its statuses, want the grid size %d", got, rep.Total)
	}
	if got := metrics.Total(snap, "campaign_jobs_total", metrics.L("status", "failed")).Value; got != uint64(wantFailed) {
		t.Errorf("campaign_jobs_total{status=\"failed\"} = %d, want %d (each failed job once)", got, wantFailed)
	}
	if got := metrics.Total(snap, "campaign_jobs_replayed_total").Value; got != uint64(rep.Skipped) {
		t.Errorf("campaign_jobs_replayed_total = %d, want Report.Skipped = %d", got, rep.Skipped)
	}
}
