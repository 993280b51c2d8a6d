package campaignd

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/obs/metrics"
)

// TestIngestShedding pins the overload-shedding handshake end to end:
// with every ingest slot occupied the coordinator answers 429 +
// Retry-After instead of queueing, the shed counter and fleet status
// record it, and the client's backoff turns the refusal into a delayed
// success once a slot frees up.
func TestIngestShedding(t *testing.T) {
	spec := campaign.Spec{Name: "tiny", Kind: "toy", Seed: 7, Trials: 4}
	srv, err := NewServer(Options{MaxInflightIngest: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}

	pol := RetryPolicy{Report: 4, Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 3}
	var release func()
	var once sync.Once
	client := &Client{Base: ts.URL, Retry: &pol,
		OnRetry: func(class string, attempt int, wait time.Duration, err error) {
			// The first attempt was shed; free the slot so the retry lands.
			once.Do(release)
		}}
	lease, err := client.Lease(context.Background(), "w-shed")
	if err != nil || lease.Lease == nil {
		t.Fatalf("lease: %+v, %v", lease, err)
	}

	// Occupy the only ingest slot, as a slow concurrent report would.
	rel, ok := srv.admitIngest()
	if !ok {
		t.Fatal("the first admission was refused with an empty server")
	}
	release = rel

	j := spec.Jobs()[0]
	res := campaign.Result{Job: j.Index, Point: j.Point, Seed: j.Seed,
		Measurement: campaign.Measurement{Encryptions: 1}}
	if err := client.Report(context.Background(), lease.Lease.ID, []campaign.Result{res}, "", nil); err != nil {
		t.Fatalf("report through a shed: %v", err)
	}

	if got := srv.Shed(); got < 1 {
		t.Fatalf("Shed() = %d, want at least 1", got)
	}
	if m := srv.Metrics(); m.Shed < 1 {
		t.Errorf("MetricsSnapshot.Shed = %d, want at least 1", m.Shed)
	}
	if fs := srv.FleetStatus(); fs.Retry.ShedTotal < 1 {
		t.Errorf("FleetStatus retry health missed the shed: %+v", fs.Retry)
	}
	if _, ok := metrics.Find(srv.PromSnapshot(), "campaignd_shed_total"); !ok {
		t.Error("campaignd_shed_total missing from the Prometheus exposition")
	}
	// The result itself must have landed despite the initial refusal.
	if m := srv.Metrics(); m.JobsDone != 1 {
		t.Errorf("jobs done = %d after the retried report, want 1", m.JobsDone)
	}
}

// TestAdmitIngestDisabled: a negative limit turns shedding off.
func TestAdmitIngestDisabled(t *testing.T) {
	srv, err := NewServer(Options{MaxInflightIngest: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 1000; i++ {
		if _, ok := srv.admitIngest(); !ok {
			t.Fatal("admission refused with shedding disabled")
		}
	}
	if srv.Shed() != 0 {
		t.Errorf("Shed() = %d with shedding disabled", srv.Shed())
	}
}

// TestDefaultClientHasTimeout pins the satellite fix: the fallback
// http.Client must carry a real timeout (the pre-hardening client used
// http.DefaultClient, which never times out).
func TestDefaultClientHasTimeout(t *testing.T) {
	if defaultHTTPClient.Timeout <= 0 {
		t.Fatal("the default client has no timeout; a stalled coordinator would hang workers forever")
	}
}
