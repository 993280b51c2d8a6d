package campaignd_test

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"grinch/internal/campaignd"
	"grinch/internal/obs/metrics"
)

// promSum parses Prometheus text exposition and sums every sample of
// the named series across label sets (comments and other names are
// skipped). found reports whether the name appeared at all.
func promSum(t *testing.T, body, name string) (sum float64, found bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // longer name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	return sum, found
}

// TestMetricsAndStatusUnderLoad hammers GET /metrics, GET /status and
// GET /api/v1/status from several goroutines while three worker nodes
// heartbeat, report and complete shards concurrently — the race
// detector owns the assertions while the run is live. Afterwards the
// scraped exposition must reconcile exactly with the merged campaign
// output: campaignd_jobs_done_total equals the merged JSONL row count.
func TestMetricsAndStatusUnderLoad(t *testing.T) {
	spec := toySpec(4)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var stop atomic.Bool
	var hammer sync.WaitGroup
	for _, path := range []string{campaignd.PathMetrics, campaignd.PathStatus, campaignd.PathStatusJSON} {
		hammer.Add(1)
		go func(path string) {
			defer hammer.Done()
			for !stop.Load() {
				r, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %s", path, r.Status)
					return
				}
			}
		}(path)
	}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for n := range errs {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			errs[n] = runWorker(t, context.Background(), ts.URL, fmt.Sprintf("w%d", n), 2, toyExec)
		}(n)
	}
	wg.Wait()
	stop.Store(true)
	hammer.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", n, err)
		}
	}

	out, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	rows := strings.Count(string(out), "\n")

	body := get(t, ts.URL+campaignd.PathMetrics)
	for _, name := range []string{
		"campaignd_jobs_done_total",
		"campaignd_results_ingested_total",
		"campaignd_shard_job_ms_count",
		"campaignd_workers_seen",
		"campaignw_jobs_total",
		"campaignw_shards_total",
	} {
		if _, ok := promSum(t, body, name); !ok {
			t.Errorf("exposition is missing series %s", name)
		}
	}
	if done, _ := promSum(t, body, "campaignd_jobs_done_total"); done != float64(rows) {
		t.Errorf("campaignd_jobs_done_total = %.0f, merged output holds %d rows", done, rows)
	}
	// Every job executed exactly once (no lease expiry in this run), so
	// the workers' own counters reconcile too.
	if jobs, _ := promSum(t, body, "campaignw_jobs_total"); jobs != float64(rows) {
		t.Errorf("campaignw_jobs_total = %.0f across workers, want %d", jobs, rows)
	}
	if shards, _ := promSum(t, body, "campaignw_shards_total"); shards != float64(resp.Shards) {
		t.Errorf("campaignw_shards_total = %.0f, want %d", shards, resp.Shards)
	}

	fleet, err := (&campaignd.Client{Base: ts.URL}).FleetStatus(context.Background())
	if err != nil {
		t.Fatalf("fleet status: %v", err)
	}
	if fleet.JobsDone != rows || len(fleet.Campaigns) != 1 || len(fleet.Workers) != 3 {
		t.Errorf("fleet status jobs=%d campaigns=%d workers=%d, want %d/1/3",
			fleet.JobsDone, len(fleet.Campaigns), len(fleet.Workers), rows)
	}
	if fleet.SuggestedShardSize < 1 {
		t.Errorf("suggested_shard_size = %d after a full run, want >= 1", fleet.SuggestedShardSize)
	}
	var p50 float64
	for _, sh := range fleet.Campaigns[0].Shards {
		p50 += sh.P50MS
	}
	if p50 < 0 {
		t.Errorf("negative p50 sum %f", p50)
	}
}

// workerDelta builds a cumulative telemetry delta as a worker would:
// the same registry snapshotted under increasing sequence numbers.
func workerDelta(seq, done uint64) metrics.Delta {
	r := metrics.New()
	r.Counter("campaignw_jobs_total", "test", metrics.L("status", "done")).Add(done)
	return metrics.Delta{Seq: seq, Series: r.Snapshot()}
}

func doneJobs(t *testing.T, series []metrics.Series) uint64 {
	t.Helper()
	s, ok := metrics.Find(series, "campaignw_jobs_total", metrics.L("status", "done"))
	if !ok {
		return 0
	}
	return s.Value
}

// TestTelemetryDeltaIdempotence exercises the cumulative-delta merge
// protocol: retried batches (same sequence), stale sequences and a
// journal-replayed batch after a coordinator restart must never
// double-count — the delta carries totals, not increments, and the
// sequence fence drops anything not strictly newer.
func TestTelemetryDeltaIdempotence(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, campaignd.Options{DataDir: dir, Logf: t.Logf})

	if !srv.ApplyTelemetry("w0", workerDelta(1, 10)) {
		t.Fatal("first delta rejected")
	}
	if got := doneJobs(t, srv.WorkerTelemetry("w0")); got != 10 {
		t.Fatalf("after seq 1: %d, want 10", got)
	}
	// Retried batch: same sequence, must be a no-op.
	if srv.ApplyTelemetry("w0", workerDelta(1, 10)) {
		t.Fatal("replayed delta accepted")
	}
	if got := doneJobs(t, srv.WorkerTelemetry("w0")); got != 10 {
		t.Fatalf("after replaying seq 1: %d, want 10", got)
	}
	// Progress, then a stale out-of-order delta.
	if !srv.ApplyTelemetry("w0", workerDelta(2, 15)) {
		t.Fatal("newer delta rejected")
	}
	if srv.ApplyTelemetry("w0", workerDelta(1, 10)) {
		t.Fatal("stale delta accepted")
	}
	if got := doneJobs(t, srv.WorkerTelemetry("w0")); got != 15 {
		t.Fatalf("after stale replay: %d, want 15", got)
	}

	// Coordinator restart: the worker re-sends its last un-acked batch
	// (telemetry attached) against the recovered server. The delta is
	// cumulative, so applying it to a fresh store lands on the true
	// total — and applying it twice changes nothing.
	srv.Close()
	srv2, _ := newTestServer(t, campaignd.Options{DataDir: dir, Logf: t.Logf})
	for i := 0; i < 2; i++ {
		srv2.ApplyTelemetry("w0", workerDelta(2, 15))
	}
	if got := doneJobs(t, srv2.WorkerTelemetry("w0")); got != 15 {
		t.Fatalf("after restart replay: %d, want 15 (double-counted?)", got)
	}

	// Merged view across workers sums, per-worker views stay separate.
	srv2.ApplyTelemetry("w1", workerDelta(1, 5))
	snap := srv2.PromSnapshot()
	s, ok := metrics.Find(snap, "campaignw_jobs_total",
		metrics.L("status", "done"), metrics.L("worker", "w0"))
	if !ok || s.Value != 15 {
		t.Fatalf("w0 series in snapshot: %+v (ok=%v), want 15", s, ok)
	}
	s, ok = metrics.Find(snap, "campaignw_jobs_total",
		metrics.L("status", "done"), metrics.L("worker", "w1"))
	if !ok || s.Value != 5 {
		t.Fatalf("w1 series in snapshot: %+v (ok=%v), want 5", s, ok)
	}
}

// TestStatusQuantilesAppearAfterIngestion drives one worker and then
// checks the per-shard latency quantiles on the campaign status: the
// toy executor reports sub-millisecond jobs, so the quantiles may be
// zero-valued, but the shard rows themselves must carry ingestion
// counts consistent with the shard ranges.
func TestStatusQuantilesAppearAfterIngestion(t *testing.T) {
	spec := toySpec(2)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := runWorker(t, context.Background(), ts.URL, "w0", 2, toyExec); err != nil {
		t.Fatalf("worker: %v", err)
	}
	st, ok := srv.Status(resp.ID)
	if !ok {
		t.Fatal("campaign vanished")
	}
	var enc uint64
	for _, sh := range st.Shards {
		if sh.Done != sh.Len() {
			t.Errorf("shard %d done %d != len %d", sh.Shard, sh.Done, sh.Len())
		}
		enc += sh.Encryptions
		if sh.P50MS < 0 || sh.P90MS < sh.P50MS && sh.P90MS != 0 {
			t.Errorf("shard %d quantiles out of order: p50=%f p90=%f", sh.Shard, sh.P50MS, sh.P90MS)
		}
	}
	if enc == 0 {
		t.Error("status reports zero encryptions after a full run")
	}
}
