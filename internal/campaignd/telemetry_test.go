package campaignd

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/obs/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/telemetry.golden")

// TestTelemetryGolden pins every operator-facing number the coordinator
// publishes — the /metrics exposition and the /api/v1/status JSON —
// across one scripted fleet history on an injected clock: two
// campaigns submitted, leases granted, results ingested (one batch
// twice), a lease expiring and its shard re-issued, an ingest request
// shed, shards completed and both campaigns merged. Every wall reading
// comes from the fake clock or a fixed Result.DurationNS, so the bytes
// are deterministic. A refactor of the coordinator's counters must
// leave them unchanged. Regenerate with
//
//	go test ./internal/campaignd -run TestTelemetryGolden -update
//
// and review the diff.
func TestTelemetryGolden(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	srv, err := NewServer(Options{
		Now:               func() time.Time { return now },
		LeaseTTL:          10 * time.Second,
		MaxInflightIngest: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var b strings.Builder
	record := func(step string) {
		t.Helper()
		b.WriteString("== " + step + " /metrics\n")
		if err := metrics.WriteProm(&b, srv.PromSnapshot()); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(srv.FleetStatus(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("== " + step + " /api/v1/status\n")
		b.Write(js)
		b.WriteByte('\n')
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(worker string) *Lease {
		t.Helper()
		l := srv.Acquire(worker).Lease
		if l == nil {
			t.Fatalf("%s got no lease", worker)
		}
		return l
	}
	// results builds the canonical results of jobs [lo, hi) of spec
	// with a fixed wall duration per job and every third job failed.
	results := func(spec campaign.Spec, lo, hi int) []campaign.Result {
		jobs := spec.Jobs()
		var out []campaign.Result
		for i := lo; i < hi; i++ {
			j := jobs[i]
			r := campaign.Result{Job: j.Index, Point: j.Point, Seed: j.Seed,
				DurationNS: int64(1+i%4) * 3_000_000}
			if i%3 == 2 {
				r.Failed, r.Err = true, "injected"
			} else {
				r.Encryptions = 100 + uint64(i)*7
			}
			out = append(out, r)
		}
		return out
	}

	a := campaign.Spec{Name: "a", Kind: "toy", Seed: 1, Trials: 3, LineWords: []int{1, 2}}
	c := campaign.Spec{Name: "b", Kind: "toy", Seed: 2, Trials: 4}
	for _, req := range []SubmitRequest{{Spec: a, ShardSize: 4}, {Spec: c, ShardSize: 2}} {
		if _, err := srv.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	record("submitted")

	// Two workers lease campaign a's two shards; w1 reports its whole
	// shard in two batches and replays the first (dropped response).
	l1 := acquire("w1")
	l2 := acquire("w2")
	now = now.Add(time.Second)
	must(srv.Ingest(l1.ID, results(a, 0, 2)))
	must(srv.Ingest(l1.ID, results(a, 0, 2)))
	must(srv.Ingest(l1.ID, results(a, 2, 4)))
	must(srv.Complete(l1.ID))
	must(srv.Ingest(l2.ID, results(a, 4, 5)))
	srv.ApplyTelemetry("w1", metrics.Delta{Seq: 1, Series: []metrics.Series{
		{Name: "campaignw_report_retries_total", Kind: metrics.KindCounter, Value: 2},
		{Name: "campaignw_backoff_ms_total", Kind: metrics.KindCounter, Value: 40},
		{Name: "campaignw_shards_total", Kind: metrics.KindCounter, Value: 1, Labels: []metrics.Label{metrics.L("outcome", "done")}},
	}})
	record("ingesting")

	// w2 goes silent: its lease expires and the shard re-issues to w3
	// with the ingested prefix kept.
	now = now.Add(11 * time.Second)
	l3 := acquire("w3")
	if l3.Campaign != l2.Campaign || l3.Shard != l2.Shard {
		t.Fatalf("re-issued lease %+v, want %s shard %d", l3, l2.Campaign, l2.Shard)
	}
	srv.ApplyTelemetry("w2", metrics.Delta{Seq: 1, Series: []metrics.Series{
		{Name: "campaignw_shards_total", Kind: metrics.KindCounter, Value: 1, Labels: []metrics.Label{metrics.L("outcome", "lost")}},
	}})

	// With the only ingest slot held, a report is shed with 429.
	release, ok := srv.admitIngest()
	if !ok {
		t.Fatal("first admission refused")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathResults, strings.NewReader(`{}`)))
	release()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("held ingest slot answered %d, want 429", rec.Code)
	}
	record("reissued-and-shed")

	// w3 finishes campaign a; w1 drains campaign b.
	now = now.Add(2 * time.Second)
	must(srv.Ingest(l3.ID, results(a, 4, 6)))
	must(srv.Complete(l3.ID))
	for i := 0; i < 2; i++ {
		l := acquire("w1")
		must(srv.Ingest(l.ID, results(c, l.Start, l.End)))
		must(srv.Complete(l.ID))
	}
	if !srv.Acquire("w1").AllDone {
		t.Fatal("fleet not done after every shard completed")
	}
	now = now.Add(time.Second)
	record("merged")

	got := []byte(b.String())
	path := filepath.Join("testdata", "telemetry.golden")
	if *update {
		must(os.MkdirAll(filepath.Dir(path), 0o755))
		must(os.WriteFile(path, got, 0o644))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/campaignd -run TestTelemetryGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("telemetry drifted from testdata/telemetry.golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("telemetry drifted from testdata/telemetry.golden: %d lines, want %d", len(gl), len(wl))
	}
}
