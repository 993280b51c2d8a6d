package worker

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/obs"
)

// TestRunShardRejectsNonPositiveTTL pins the ticker-panic fix at the
// unit level: a lease whose TTL rounded to zero milliseconds is
// refused with a diagnosis, before the worker touches the network
// (previously time.NewTicker(ttl/3) panicked the whole process).
func TestRunShardRejectsNonPositiveTTL(t *testing.T) {
	for _, ttl := range []int64{0, -5} {
		err := runShard(context.Background(), Config{ID: "w-unit"}, nil, newMeter(),
			func(string, ...any) {}, &campaignd.Lease{ID: "L1", TTLMS: ttl})
		if err == nil || !strings.Contains(err.Error(), "invalid ttl_ms") {
			t.Fatalf("ttl_ms=%d: err = %v, want an invalid-TTL refusal", ttl, err)
		}
	}
}

// TestRunShardRejectsMalformedRange: a lease whose range is not a
// range of its spec's grid (negative start, start past end, end past
// the grid) is refused with an error before the worker expands or
// touches anything, instead of panicking in make or in slicing.
func TestRunShardRejectsMalformedRange(t *testing.T) {
	spec := campaign.Spec{Name: "tiny", Kind: "toy", Seed: 1, Trials: 8}
	for _, rng := range []campaignd.ShardRange{
		{Start: -1, End: 4},
		{Start: 3, End: 1},
		{Start: 6, End: 9},
	} {
		l := &campaignd.Lease{ID: "L1", ShardRange: rng, Spec: spec, TTLMS: 1000}
		err := runShard(context.Background(), Config{ID: "w-unit"}, nil, newMeter(), func(string, ...any) {}, l)
		if err == nil || !strings.Contains(err.Error(), "not a range of the 8-job grid") {
			t.Fatalf("range [%d,%d): err = %v, want a malformed-range refusal", rng.Start, rng.End, err)
		}
	}
}

// TestOneReportInFlight: a worker never has two reports on the wire,
// reports nothing after Complete, and keeps executing while a report is
// in flight — with one pool slot, more than one job per report starts
// during the report round trips (a synchronous flush allows at most the
// one job already dispatched).
func TestOneReportInFlight(t *testing.T) {
	srv, err := campaignd.NewServer(campaignd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := campaign.Spec{Name: "overlap", Kind: "toy", Seed: 1, Trials: 64}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var completed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case campaignd.PathResults:
			if completed.Load() {
				t.Error("a report arrived after Complete")
			}
			time.Sleep(5 * time.Millisecond) // a slow coordinator
		case campaignd.PathComplete:
			completed.Store(true)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	rt := &reportCounter{next: http.DefaultTransport}
	exec := func(j campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
		if rt.inflight.Load() > 0 {
			rt.overlapped.Add(1)
		}
		time.Sleep(time.Millisecond)
		return campaign.Measurement{Encryptions: uint64(j.Index)}, nil
	}
	err = Run(context.Background(), Config{Server: ts.URL, ID: "w", Exec: exec, Workers: 1, Batch: 4,
		Poll: 5 * time.Millisecond, Drain: true, Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.Status(resp.ID); st.State != campaignd.CampaignMerged || st.Done != 64 {
		t.Fatalf("campaign %s with %d/64 jobs, want merged", st.State, st.Done)
	}
	if m := rt.max.Load(); m != 1 {
		t.Fatalf("%d reports in flight at once, want 1", m)
	}
	if o, n := rt.overlapped.Load(), rt.reports.Load(); o <= n {
		t.Fatalf("%d jobs started during %d report round trips; the pool stalled on each report", o, n)
	}
}

// TestFinalFlushRetries: the last partial batch of a shard gets the
// full report budget with backoff, like every earlier batch. The shard
// context is already stopped when that batch goes out, so the final
// flush must run under the worker's context: two refused reports must
// end in a merged campaign, not in Run returning the 503.
func TestFinalFlushRetries(t *testing.T) {
	srv, err := campaignd.NewServer(campaignd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := campaign.Spec{Name: "final-flush", Kind: "toy", Seed: 1, Trials: 6}
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	var refused atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == campaignd.PathResults && refused.Add(1) <= 2 {
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	exec := func(j campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
		return campaign.Measurement{Encryptions: uint64(j.Index)}, nil
	}
	// Batch exceeds the shard, so the only report is the final flush.
	err = Run(context.Background(), Config{Server: ts.URL, ID: "w", Exec: exec, Workers: 1, Batch: 64,
		Poll: 5 * time.Millisecond, Drain: true,
		Retry: &campaignd.RetryPolicy{Report: 3}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := refused.Load(); n != 3 {
		t.Fatalf("%d report round trips, want 2 refused and 1 accepted", n)
	}
	if st, _ := srv.Status(resp.ID); st.State != campaignd.CampaignMerged || st.Done != 6 {
		t.Fatalf("campaign %s with %d/6 jobs, want merged", st.State, st.Done)
	}
}

// reportCounter is a worker transport that tracks the report round
// trips on the wire.
type reportCounter struct {
	next                               http.RoundTripper
	inflight, max, reports, overlapped atomic.Int32
}

func (c *reportCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != campaignd.PathResults {
		return c.next.RoundTrip(r)
	}
	c.reports.Add(1)
	n := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	for m := c.max.Load(); n > m && !c.max.CompareAndSwap(m, n); m = c.max.Load() {
	}
	return c.next.RoundTrip(r)
}

// TestMeterRetryAccounting pins the retry telemetry: per-class
// counters, the unknown-class fallback, and the backoff total that the
// drain summary and fleet status read.
func TestMeterRetryAccounting(t *testing.T) {
	m := newMeter()
	m.retry(campaignd.ClassReport, 10*time.Millisecond)
	m.retry(campaignd.ClassReport, 15*time.Millisecond)
	m.retry(campaignd.ClassHeartbeat, 5*time.Millisecond)
	m.retry("no-such-class", 2*time.Millisecond) // falls back to query
	m.retry(campaignd.ClassLease, 100*time.Millisecond)

	if got := m.retriesBy[campaignd.ClassReport].Value(); got != 2 {
		t.Errorf("report retries = %d, want 2", got)
	}
	if got := m.retriesBy[campaignd.ClassQuery].Value(); got != 1 {
		t.Errorf("unknown-class fallback: query retries = %d, want 1", got)
	}
	if got := m.retriesBy[campaignd.ClassLease].Value(); got != 1 {
		t.Errorf("lease retries = %d, want 1", got)
	}
	if got := m.backoffMS.Value(); got != 132 {
		t.Errorf("backoff total = %dms, want 132", got)
	}
	sum := m.summary()
	if sum.Retries != 5 || sum.BackoffMS != 132 {
		t.Errorf("summary retries=%d backoff=%d, want 5 and 132", sum.Retries, sum.BackoffMS)
	}
}

// TestRunHonorsCancelDuringLease: a worker cancelled while its lease
// call hangs on a coordinator that never answers returns at once. The
// client's attempts run under the caller's context, so the cancel
// aborts the call on the wire instead of waiting out the per-attempt
// timeout of every attempt.
func TestRunHonorsCancelDuringLease(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == campaignd.PathLease {
			<-release // a hung coordinator
		}
	}))
	defer ts.Close()
	defer close(release) // unblock the handler before ts.Close waits on it

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	exec := func(j campaign.Job, _ obs.Tracer) (campaign.Measurement, error) {
		return campaign.Measurement{}, nil
	}
	start := time.Now()
	err := Run(ctx, Config{Server: ts.URL, ID: "w", Exec: exec,
		Retry: &campaignd.RetryPolicy{Lease: 2, CallTimeout: 2 * time.Second}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Run returned %s after start, want within 500ms of the 50ms cancel", elapsed)
	}
}

// TestIDSeed: the jitter seed is a stable function of the worker ID so
// a fleet's backoff schedules are decorrelated but per-worker
// replayable.
func TestIDSeed(t *testing.T) {
	if idSeed("w1") != idSeed("w1") {
		t.Error("idSeed is not stable")
	}
	if idSeed("w1") == idSeed("w2") {
		t.Error("distinct workers share a jitter seed")
	}
}
