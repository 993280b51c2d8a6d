package campaignd_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"grinch/internal/campaignd"
	"grinch/internal/campaignd/chaos"
	"grinch/internal/campaignd/worker"
)

// chaosWorker runs one draining worker through a fault-injecting
// transport and returns the transport for injection assertions.
func chaosWorker(t *testing.T, url, id string, plan chaos.Plan, retry *campaignd.RetryPolicy) (*chaos.Transport, error) {
	t.Helper()
	tr := chaos.NewTransport(plan, nil)
	tr.Logf = t.Logf
	err := worker.Run(context.Background(), worker.Config{
		Server:    url,
		ID:        id,
		Exec:      toyExec,
		Workers:   2,
		Batch:     4,
		Poll:      5 * time.Millisecond,
		Drain:     true,
		Transport: tr,
		Retry:     retry,
		Logf:      t.Logf,
	})
	return tr, err
}

// fastRetry is the default posture with sub-millisecond backoff so
// chaos tests spend no meaningful wall time sleeping.
func fastRetry() *campaignd.RetryPolicy {
	p := campaignd.DefaultRetryPolicy()
	p.Base = 200 * time.Microsecond
	p.Max = 2 * time.Millisecond
	p.Seed = 1
	return &p
}

// TestReportReplayAfterDropResponse is the commit-then-lose-response
// race — the at-least-once hazard this PR exists to close. The server
// commits the first result batch, the response is lost on the wire,
// the client replays the batch, and the server dedupes: the duplicates
// counter absorbs exactly the replayed batch, nothing double-counts,
// and the merged bytes still equal the single-process run.
func TestReportReplayAfterDropResponse(t *testing.T) {
	spec := toySpec(2) // 12 jobs
	wantJSONL, _ := referenceBytes(t, spec)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}

	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindDropResponse, Path: campaignd.PathResults, Start: 1, Length: 1},
	}}
	tr, err := chaosWorker(t, ts.URL, "w-replay", plan, fastRetry())
	if err != nil {
		t.Fatalf("worker under drop-response: %v", err)
	}
	if got := tr.Injected(chaos.KindDropResponse); got != 1 {
		t.Fatalf("injected %d drop-responses, want 1", got)
	}

	m := srv.Metrics()
	if m.Duplicates != 4 {
		t.Errorf("duplicates = %d, want exactly the replayed batch of 4", m.Duplicates)
	}
	if m.JobsDone != spec.NumJobs() {
		t.Errorf("jobs done = %d, want %d (no loss, no double-count)", m.JobsDone, spec.NumJobs())
	}
	got, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merged output after replayed batch differs from single-process run")
	}
}

// TestCompleteReplayAfterDropResponse: the server accepts a Complete,
// deletes the lease, and the response is lost. The replayed Complete
// must be acknowledged (the server remembers accepted lease IDs) —
// without that memory the retry gets 410 and the worker books a
// finished shard as lost.
func TestCompleteReplayAfterDropResponse(t *testing.T) {
	spec := toySpec(2)
	wantJSONL, _ := referenceBytes(t, spec)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}

	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindDropResponse, Path: campaignd.PathComplete, Start: 1, Length: 1},
	}}
	tr, err := chaosWorker(t, ts.URL, "w-complete", plan, fastRetry())
	if err != nil {
		t.Fatalf("worker under complete drop-response: %v", err)
	}
	if got := tr.Injected(chaos.KindDropResponse); got != 1 {
		t.Fatalf("injected %d drop-responses, want 1", got)
	}

	st, err := (&campaignd.Client{Base: ts.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != campaignd.CampaignMerged {
		t.Fatalf("campaign state %s after replayed Complete, want merged", st.State)
	}
	got, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merged output after replayed Complete differs from single-process run")
	}
}

// TestPreHardeningClientLosesShard is the regression demonstration the
// acceptance criteria require: under the exact drop-response scenario
// the hardened stack heals (TestReportReplayAfterDropResponse), the
// pre-hardening posture — single-shot calls, so the report that lost
// its response is never replayed — abandons the shard and fails the
// worker.
func TestPreHardeningClientLosesShard(t *testing.T) {
	spec := toySpec(2)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 6})
	if err != nil {
		t.Fatal(err)
	}

	plan := chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.KindDropResponse, Path: campaignd.PathResults, Start: 1, Length: 1},
	}}
	legacy := campaignd.NoRetryPolicy()
	_, err = chaosWorker(t, ts.URL, "w-legacy", plan, &legacy)
	if err == nil {
		t.Fatal("the single-shot client survived a dropped response; the hardening demo is vacuous")
	}
	if !strings.Contains(err.Error(), "flush failed") {
		t.Fatalf("worker failed with %v, want an abandoned flush", err)
	}
	st, err := (&campaignd.Client{Base: ts.URL}).Status(context.Background(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == campaignd.CampaignMerged {
		t.Fatal("campaign merged despite the abandoned shard — the failure demo proved nothing")
	}
}

// TestLeaseTTLValidation pins the heartbeat-ticker fix: a lease TTL
// that rounds to zero milliseconds is refused with a clear error
// (previously time.NewTicker(0/3) panicked the worker), and a tiny
// but positive TTL clamps the heartbeat interval instead of dividing
// it to nothing.
func TestLeaseTTLValidation(t *testing.T) {
	t.Run("ttl_ms=0 is refused", func(t *testing.T) {
		clock := newFakeClock()
		srv, ts := newTestServer(t, campaignd.Options{
			LeaseTTL: 500 * time.Microsecond, Now: clock.Now, Logf: t.Logf,
		})
		if _, err := srv.Submit(campaignd.SubmitRequest{Spec: toySpec(1)}); err != nil {
			t.Fatal(err)
		}
		err := runWorker(t, context.Background(), ts.URL, "w-ttl0", 1, toyExec)
		if err == nil || !strings.Contains(err.Error(), "invalid ttl_ms") {
			t.Fatalf("worker err = %v, want an invalid-TTL refusal (not a ticker panic)", err)
		}
	})

	t.Run("tiny ttl clamps the heartbeat", func(t *testing.T) {
		spec := toySpec(1)
		wantJSONL, _ := referenceBytes(t, spec)
		clock := newFakeClock() // frozen clock: the 1ms lease never expires
		srv, ts := newTestServer(t, campaignd.Options{
			LeaseTTL: time.Millisecond, Now: clock.Now, Logf: t.Logf,
		})
		resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := runWorker(t, context.Background(), ts.URL, "w-ttl1", 1, toyExec); err != nil {
			t.Fatalf("worker under a 1ms TTL: %v", err)
		}
		got, err := srv.Output(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantJSONL) {
			t.Fatal("merged output under a clamped heartbeat differs from single-process run")
		}
	})
}

// TestFleetUnderMixedChaos soaks the quick way: three workers behind
// independently-seeded mixed fault plans (delays, 5xx, lost requests
// and responses) still converge to byte-identical output, and the
// coordinator's fleet status reflects the retries they burned.
func TestFleetUnderMixedChaos(t *testing.T) {
	spec := toySpec(6) // 36 jobs
	wantJSONL, _ := referenceBytes(t, spec)
	srv, ts := newTestServer(t, campaignd.Options{Logf: t.Logf})
	resp, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 5})
	if err != nil {
		t.Fatal(err)
	}

	mixed := func(seed uint64) chaos.Plan {
		return chaos.Plan{Seed: seed, Faults: []chaos.Fault{
			{Kind: chaos.KindDropResponse, Path: campaignd.PathResults, Probability: 0.15},
			{Kind: chaos.Kind5xx, Probability: 0.1},
			{Kind: chaos.KindDropRequest, Path: campaignd.PathResults, Probability: 0.1},
			{Kind: chaos.KindDelay, DelayMS: 1, Probability: 0.2},
		}}
	}
	type res struct {
		tr  *chaos.Transport
		err error
	}
	results := make(chan res, 3)
	for i, id := range []string{"w-chaos-0", "w-chaos-1", "w-chaos-2"} {
		go func(i int, id string) {
			tr, err := chaosWorker(t, ts.URL, id, mixed(uint64(1000+i)), fastRetry())
			results <- res{tr, err}
		}(i, id)
	}
	var injected uint64
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("worker under mixed chaos: %v", r.err)
		}
		injected += r.tr.InjectedTotal()
	}
	if injected == 0 {
		t.Fatal("no faults fired; the chaos drill exercised nothing")
	}
	t.Logf("mixed chaos drill injected %d faults", injected)

	got, err := srv.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatal("merged output under mixed chaos differs from single-process run")
	}
	fs := srv.FleetStatus()
	if fs.Retry.WorkerRetriesTotal == 0 {
		t.Error("fleet status reports zero worker retries after an injected-fault run")
	}
	if fs.Retry.WorkerBackoffMSTotal == 0 {
		t.Log("note: retries completed with sub-millisecond backoff (expected with the fast test policy)")
	}
}
