package campaignd_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/campaignd/worker"
	"grinch/internal/obs"
	"grinch/internal/rng"
)

// toyExec is a deterministic executor: every measurement is a pure
// function of the job seed, with seed-dependent CPU work so scheduling
// interleaves, and a deterministic sprinkling of failed jobs so the
// merge path carries Failed/Err records too.
func toyExec(job campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
	r := rng.New(job.Seed)
	n := 100 + r.Intn(1000)
	acc := uint64(0)
	for i := 0; i < n*20; i++ {
		acc += r.Uint64() >> 60
	}
	if job.Seed%17 == 0 {
		return campaign.Measurement{}, fmt.Errorf("toy: deterministic failure for seed %d", job.Seed)
	}
	return campaign.Measurement{Encryptions: uint64(n) + acc%2, DroppedOut: n > 1050, Correct: n%2 == 0}, nil
}

func toySpec(trials int) campaign.Spec {
	return campaign.Spec{
		Name:        "toy",
		Kind:        "toy",
		Seed:        2021,
		Trials:      trials,
		Budget:      1000,
		LineWords:   []int{1, 2},
		ProbeRounds: []int{1, 2, 3},
	}
}

// referenceBytes runs the spec through the single-process orchestrator
// — the byte-determinism reference the distributed path must match.
func referenceBytes(t *testing.T, spec campaign.Spec) (jsonl, csv []byte) {
	t.Helper()
	var jl, cs bytes.Buffer
	_, err := campaign.Run(context.Background(), spec, toyExec, campaign.Options{
		Workers: 2,
		Sinks:   []campaign.Sink{&campaign.JSONLSink{W: &jl}, &campaign.CSVSink{W: &cs}},
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return jl.Bytes(), cs.Bytes()
}

// fakeClock is an injectable clock the tests advance to trigger lease
// expiry without real waiting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestServer boots a coordinator behind httptest.
func newTestServer(t *testing.T, opts campaignd.Options) (*campaignd.Server, *httptest.Server) {
	t.Helper()
	srv, err := campaignd.NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts
}

func runWorker(t *testing.T, ctx context.Context, url, id string, pool int, exec campaign.Executor) error {
	t.Helper()
	return worker.Run(ctx, worker.Config{
		Server:  url,
		ID:      id,
		Exec:    exec,
		Workers: pool,
		Batch:   4,
		Poll:    5 * time.Millisecond,
		Drain:   true,
		Logf:    t.Logf,
	})
}

// TestDistributedDeterminism is the correctness proof of the scale-out
// path: the same spec run through campaignd with 1 worker node and
// with 3 worker nodes produces merged JSONL and CSV byte-identical to
// the single-process orchestrator.
func TestDistributedDeterminism(t *testing.T) {
	spec := toySpec(4)
	wantJSONL, wantCSV := referenceBytes(t, spec)

	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			dir := t.TempDir()
			outPath := filepath.Join(dir, "merged.jsonl")
			csvPath := filepath.Join(dir, "merged.csv")
			srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
			resp, err := srv.Submit(campaignd.SubmitRequest{
				Spec: spec, ShardSize: 5, Out: outPath, CSV: csvPath,
			})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if resp.Jobs != spec.NumJobs() || resp.Shards != (spec.NumJobs()+4)/5 {
				t.Fatalf("submit response %+v for %d jobs", resp, spec.NumJobs())
			}

			var wg sync.WaitGroup
			errs := make([]error, nodes)
			for n := 0; n < nodes; n++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					errs[n] = runWorker(t, context.Background(), ts.URL, fmt.Sprintf("w%d", n), 2, toyExec)
				}(n)
			}
			wg.Wait()
			for n, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", n, err)
				}
			}

			got, err := srv.Output(resp.ID)
			if err != nil {
				t.Fatalf("output: %v", err)
			}
			if !bytes.Equal(got, wantJSONL) {
				t.Fatalf("merged JSONL differs from single-process run (%d vs %d bytes)", len(got), len(wantJSONL))
			}
			fileJSONL, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fileJSONL, wantJSONL) {
				t.Fatal("merged JSONL file differs from single-process run")
			}
			fileCSV, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fileCSV, wantCSV) {
				t.Fatal("merged CSV file differs from single-process run")
			}
		})
	}
}

// killAfter wraps an executor to cancel a context after n completed
// executions — the in-process stand-in for kill -9 on a worker node.
func killAfter(exec campaign.Executor, n int32, cancel context.CancelFunc) campaign.Executor {
	var done atomic.Int32
	return func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		m, err := exec(j, tr)
		if done.Add(1) >= n {
			cancel()
		}
		return m, err
	}
}

// killAfterIngest is killAfter for a single-slot worker that must have
// reported before it dies. Reports run under the worker's context, so
// the kill aborts the one in flight: jobs from index n-1 on wait until
// the coordinator has ingested n-1 results.
func killAfterIngest(srv *campaignd.Server, exec campaign.Executor, n int32, cancel context.CancelFunc) campaign.Executor {
	reported := func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		for deadline := time.Now().Add(10 * time.Second); j.Index >= int(n)-1 && srv.Metrics().JobsDone < int(n)-1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return exec(j, tr)
	}
	return killAfter(reported, n, cancel)
}

// TestWorkerKillAndRestart kills a worker mid-shard, lets its lease
// expire, and finishes the campaign with a second worker: the shard is
// re-issued with the ingested prefix intact, the replacement skips the
// already-done jobs, and the merged output is still byte-identical to
// the single-process run — the acceptance scenario of the distributed
// subsystem.
func TestWorkerKillAndRestart(t *testing.T) {
	spec := toySpec(4) // 24 jobs
	wantJSONL, _ := referenceBytes(t, spec)
	clock := newFakeClock()
	ttl := 10 * time.Second
	srv, ts := newTestServer(t, campaignd.Options{
		Now: clock.Now, LeaseTTL: ttl, Logf: t.Logf,
	})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Worker A dies after ~3 jobs, mid-shard, without completing.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := worker.Run(ctxA, worker.Config{
		Server: ts.URL, ID: "wA", Exec: killAfterIngest(srv, toyExec, 3, cancelA),
		Workers: 1, Batch: 1, Poll: 5 * time.Millisecond, Logf: t.Logf,
	})
	if errA == nil || ctxA.Err() == nil {
		t.Fatalf("worker A was supposed to die mid-shard, got err=%v", errA)
	}
	st, err := (&campaignd.Client{Base: ts.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done == 0 || st.Done >= spec.NumJobs() || st.State != campaignd.CampaignRunning {
		t.Fatalf("after the kill: done=%d/%d state=%s, want a strict mid-campaign prefix", st.Done, spec.NumJobs(), st.State)
	}
	ingestedByA := st.Done

	// The lease is still live: a replacement worker must not steal the
	// shard before the TTL elapses.
	clock.Advance(ttl / 2)

	// After expiry the shard re-issues; worker B finishes everything,
	// skipping what A already reported.
	clock.Advance(ttl)
	var execsB atomic.Int32
	countingExec := func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		execsB.Add(1)
		return toyExec(j, tr)
	}
	if err := runWorker(t, context.Background(), ts.URL, "wB", 2, countingExec); err != nil {
		t.Fatalf("worker B: %v", err)
	}

	st, err = (&campaignd.Client{Base: ts.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != campaignd.CampaignMerged || st.Done != spec.NumJobs() {
		t.Fatalf("after restart: state=%s done=%d, want merged %d", st.State, st.Done, spec.NumJobs())
	}
	reissues := 0
	for _, sh := range st.Shards {
		reissues += sh.Reissues
	}
	if reissues == 0 {
		t.Fatal("the killed worker's shard was never re-issued")
	}
	if got := int(execsB.Load()); got != spec.NumJobs()-ingestedByA {
		t.Errorf("worker B executed %d jobs, want %d (grid %d minus %d ingested before the kill)",
			got, spec.NumJobs()-ingestedByA, spec.NumJobs(), ingestedByA)
	}

	got, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merged output after kill/restart differs from single-process run")
	}
}

// TestServerRestartRecovery kills the coordinator itself mid-campaign:
// a new server over the same data directory resumes from the shard
// journals (ingested results survive, shards re-lease) and the final
// merge is still byte-identical.
func TestServerRestartRecovery(t *testing.T) {
	spec := toySpec(4)
	wantJSONL, wantCSV := referenceBytes(t, spec)
	dataDir := t.TempDir()
	clock := newFakeClock()

	srv1, ts1 := newTestServer(t, campaignd.Options{
		DataDir: dataDir, Now: clock.Now, LeaseTTL: 10 * time.Second, Logf: t.Logf,
	})
	resp, err := srv1.Submit(campaignd.SubmitRequest{
		Spec: spec, ShardSize: 8, Out: "merged.jsonl", CSV: "merged.csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	worker.Run(ctxA, worker.Config{
		Server: ts1.URL, ID: "wA", Exec: killAfterIngest(srv1, toyExec, 3, cancelA),
		Workers: 1, Batch: 1, Poll: 5 * time.Millisecond, Logf: t.Logf,
	})
	stBefore, err := (&campaignd.Client{Base: ts1.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stBefore.Done == 0 {
		t.Fatal("worker A reported nothing before the coordinator restart")
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Coordinator restart: journals replay; the dead lease is gone with
	// the process, so the shard is immediately pending again.
	srv2, ts2 := newTestServer(t, campaignd.Options{
		DataDir: dataDir, Now: clock.Now, LeaseTTL: 10 * time.Second, Logf: t.Logf,
	})
	st, err := (&campaignd.Client{Base: ts2.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatalf("recovered campaign not found: %v", err)
	}
	if st.Done != stBefore.Done {
		t.Fatalf("recovery lost results: done=%d, want %d", st.Done, stBefore.Done)
	}

	if err := runWorker(t, context.Background(), ts2.URL, "wB", 2, toyExec); err != nil {
		t.Fatalf("worker B after recovery: %v", err)
	}
	got, err := srv2.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merged output after coordinator restart differs from single-process run")
	}
	fileCSV, err := os.ReadFile(filepath.Join(dataDir, resp.ID, "merged.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileCSV, wantCSV) {
		t.Fatal("merged CSV after coordinator restart differs from single-process run")
	}

	// A second recovery over the finished campaign re-merges
	// idempotently.
	ts2.Close()
	srv2.Close()
	srv3, err := campaignd.NewServer(campaignd.Options{DataDir: dataDir, Now: clock.Now})
	if err != nil {
		t.Fatalf("re-recovering a merged campaign: %v", err)
	}
	defer srv3.Close()
	again, err := srv3.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, wantJSONL) {
		t.Fatal("idempotent re-merge changed bytes")
	}
}

// TestLeaseFencing pins the zombie-worker protocol: after expiry and
// re-issue, the old lease's reports, heartbeats and completion are
// rejected with the gone signal.
func TestLeaseFencing(t *testing.T) {
	spec := campaign.Spec{Name: "tiny", Kind: "toy", Seed: 7, Trials: 4}
	clock := newFakeClock()
	ttl := 10 * time.Second
	srv, ts := newTestServer(t, campaignd.Options{Now: clock.Now, LeaseTTL: ttl, Logf: t.Logf})
	if _, err := srv.Submit(campaignd.SubmitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	client := &campaignd.Client{Base: ts.URL}

	leaseA, err := client.Lease(context.Background(), "zombie")
	if err != nil || leaseA.Lease == nil {
		t.Fatalf("lease A: %+v, %v", leaseA, err)
	}
	// Heartbeats keep it alive across half a TTL...
	clock.Advance(ttl / 2)
	if err := client.Heartbeat(context.Background(), leaseA.Lease.ID, "", nil); err != nil {
		t.Fatalf("heartbeat on a live lease: %v", err)
	}
	// ...but silence past the TTL kills it.
	clock.Advance(ttl + time.Second)
	leaseB, err := client.Lease(context.Background(), "healthy")
	if err != nil || leaseB.Lease == nil {
		t.Fatalf("re-issue after expiry: %+v, %v", leaseB, err)
	}
	if leaseB.Lease.Shard != leaseA.Lease.Shard || leaseB.Lease.ID == leaseA.Lease.ID {
		t.Fatalf("expected the same shard under a fresh lease, got %+v after %+v", leaseB.Lease, leaseA.Lease)
	}

	jobs := spec.Jobs()
	mkResult := func(j campaign.Job) campaign.Result {
		r := campaign.Result{Job: j.Index, Point: j.Point, Seed: j.Seed}
		m, err := toyExec(j, nil)
		if err != nil {
			r.Failed = true
			r.Err = err.Error()
			return r
		}
		r.Measurement = m
		return r
	}
	if err := client.Report(context.Background(), leaseA.Lease.ID, []campaign.Result{mkResult(jobs[0])}, "", nil); err != campaignd.ErrLeaseGone {
		t.Fatalf("zombie report: err=%v, want ErrLeaseGone", err)
	}
	if err := client.Heartbeat(context.Background(), leaseA.Lease.ID, "", nil); err != campaignd.ErrLeaseGone {
		t.Fatalf("zombie heartbeat: err=%v, want ErrLeaseGone", err)
	}
	if err := client.Complete(context.Background(), leaseA.Lease.ID, "", nil); err != campaignd.ErrLeaseGone {
		t.Fatalf("zombie complete: err=%v, want ErrLeaseGone", err)
	}

	// The healthy lease works: completing early (missing jobs) is
	// rejected, full coverage completes.
	if err := client.Complete(context.Background(), leaseB.Lease.ID, "", nil); err == nil || err == campaignd.ErrLeaseGone {
		t.Fatalf("complete with missing jobs: err=%v, want a coverage error", err)
	}
	for _, j := range jobs {
		if err := client.Report(context.Background(), leaseB.Lease.ID, []campaign.Result{mkResult(j)}, "", nil); err != nil {
			t.Fatalf("healthy report: %v", err)
		}
	}
	// Duplicates are dropped, not duplicated in the merge.
	if err := client.Report(context.Background(), leaseB.Lease.ID, []campaign.Result{mkResult(jobs[1])}, "", nil); err != nil {
		t.Fatalf("duplicate report: %v", err)
	}
	// Out-of-range jobs are rejected.
	bogus := mkResult(jobs[0])
	bogus.Job = spec.NumJobs() + 5
	if err := client.Report(context.Background(), leaseB.Lease.ID, []campaign.Result{bogus}, "", nil); err == nil {
		t.Fatal("out-of-range report was accepted")
	}
	if err := client.Complete(context.Background(), leaseB.Lease.ID, "", nil); err != nil {
		t.Fatalf("complete: %v", err)
	}

	wantJSONL, _ := referenceBytes(t, spec)
	sts, err := client.Statuses(context.Background())
	if err != nil || len(sts) != 1 {
		t.Fatalf("statuses: %v, %v", sts, err)
	}
	got, err := client.Output(context.Background(), sts[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("hand-driven protocol merge differs from single-process run")
	}
}

// TestStatusSurfaces smoke-tests the human/debug surfaces: the status
// page shows shard states and workers, expvar and pprof respond.
func TestStatusSurfaces(t *testing.T) {
	spec := toySpec(2)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	if _, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4}); err != nil {
		t.Fatal(err)
	}
	if err := runWorker(t, context.Background(), ts.URL, "w-status", 2, toyExec); err != nil {
		t.Fatal(err)
	}

	page := get(t, ts.URL+"/status")
	for _, want := range []string{"campaignd", "toy", "done", "w-status", "merged"} {
		if !strings.Contains(page, want) {
			t.Errorf("status page is missing %q", want)
		}
	}
	if !strings.Contains(get(t, ts.URL+"/debug/vars"), "memstats") {
		t.Error("expvar endpoint did not serve")
	}
	if !strings.Contains(get(t, ts.URL+"/debug/pprof/"), "profile") {
		t.Error("pprof index did not serve")
	}

	m := srv.Metrics()
	if m.JobsDone != spec.NumJobs() || m.CampaignsMerged != 1 || m.ShardsDone != m.Shards {
		t.Errorf("metrics snapshot inconsistent after a finished campaign: %+v", m)
	}

	// Unknown campaigns 404; unmerged output refuses.
	resp, err := http.Get(ts.URL + campaignd.PathCampaigns + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign returned %d", resp.StatusCode)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubmitValidation rejects malformed specs at the API boundary.
func TestSubmitValidation(t *testing.T) {
	srv, ts := newTestServer(t, campaignd.Options{})
	if _, err := srv.Submit(campaignd.SubmitRequest{Spec: campaign.Spec{Name: "nokind"}}); err == nil {
		t.Fatal("spec without a kind was accepted")
	}
	resp, err := http.Post(ts.URL+campaignd.PathCampaigns, "application/json",
		strings.NewReader(`{"spec": {"name": "nokind"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit returned %d, want 400", resp.StatusCode)
	}
}

// TestSubmitRejectsOversizedGrid: a grid whose size overflows int (or
// merely exceeds campaign.MaxJobs) is a 400, not a campaign of a
// negative number of jobs that can never merge.
func TestSubmitRejectsOversizedGrid(t *testing.T) {
	srv, ts := newTestServer(t, campaignd.Options{})
	resp, err := http.Post(ts.URL+campaignd.PathCampaigns, "application/json",
		strings.NewReader(`{"spec": {"kind":"first-round","trials":9223372036854775807,"line_words":[1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing grid submit returned %d, want 400", resp.StatusCode)
	}
	if n := len(srv.Statuses()); n != 0 {
		t.Fatalf("%d campaigns registered after the refused submit", n)
	}
}

// TestRejectedSubmitLeavesNoTrace: a submit refused as invalid must not
// persist anything, or the next coordinator boot over the same data
// directory fails to recover it. A directory left without campaign.json
// (a crash inside Submit) is skipped on recovery too.
func TestRejectedSubmitLeavesNoTrace(t *testing.T) {
	dataDir := t.TempDir()
	srv, ts := newTestServer(t, campaignd.Options{DataDir: dataDir})
	if _, err := srv.Submit(campaignd.SubmitRequest{Spec: campaign.Spec{Name: "nokind"}}); err == nil {
		t.Fatal("spec without a kind was accepted")
	}
	resp, err := http.Post(ts.URL+campaignd.PathCampaigns, "application/json",
		strings.NewReader(`{"spec": {"name": "nokind"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit returned %d, want 400", resp.StatusCode)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dataDir, "c0007"), 0o755); err != nil {
		t.Fatal(err)
	}

	srv2, err := campaignd.NewServer(campaignd.Options{DataDir: dataDir})
	if err != nil {
		t.Fatalf("restart after a rejected submit: %v", err)
	}
	defer srv2.Close()
	if n := len(srv2.Statuses()); n != 0 {
		t.Fatalf("restart recovered %d campaigns, want 0", n)
	}
}
