//go:build soak

// The node-churn soak: an opt-in, longer-running drill that subjects
// the full distributed stack to every disturbance at once — chaos
// transports on every worker, a worker killed mid-shard and respawned,
// and a coordinator restart over live traffic — and then holds the
// merge to the same oracle as the quick tests: byte-identical output
// to a single-process run. Run with:
//
//	go test -race -tags soak -run TestChurnSoak ./internal/campaignd
//
// (scripts/ci_chaos.sh runs it as part of the chaos drill.)
package campaignd_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/campaignd/chaos"
	"grinch/internal/campaignd/worker"
	"grinch/internal/obs"
)

func TestChurnSoak(t *testing.T) {
	spec := toySpec(40) // 240 jobs: long enough to restart under
	wantJSONL, wantCSV := referenceBytes(t, spec)
	dataDir := t.TempDir()
	outDir := t.TempDir()
	outPath := filepath.Join(outDir, "merged.jsonl")
	csvPath := filepath.Join(outDir, "merged.csv")

	// The coordinator owns its listener so a restart can rebind the
	// same address — workers must ride through the outage, not be
	// handed a fresh URL.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ttl := 1500 * time.Millisecond
	startCoord := func(ln net.Listener) (*campaignd.Server, *http.Server) {
		srv, err := campaignd.NewServer(campaignd.Options{
			DataDir: dataDir, LeaseTTL: ttl, Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		return srv, hs
	}
	srv1, hs1 := startCoord(ln)
	resp, err := srv1.Submit(campaignd.SubmitRequest{
		Spec: spec, ShardSize: 16, Out: outPath, CSV: csvPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Jobs sleep a little so the campaign outlives the churn script;
	// the sleep never reaches the result bytes.
	slowExec := func(j campaign.Job, tr obs.Tracer) (campaign.Measurement, error) {
		time.Sleep(2 * time.Millisecond)
		return toyExec(j, tr)
	}
	soakPlan := func(seed uint64) chaos.Plan {
		return chaos.Plan{Seed: seed, Faults: []chaos.Fault{
			{Kind: chaos.KindDropResponse, Path: campaignd.PathResults, Probability: 0.1},
			{Kind: chaos.KindDropRequest, Path: campaignd.PathResults, Probability: 0.05},
			{Kind: chaos.Kind5xx, Probability: 0.05},
			{Kind: chaos.KindRefuse, Probability: 0.02},
			{Kind: chaos.KindDelay, DelayMS: 2, Probability: 0.2},
		}}
	}
	// The coordinator restart must look like an outage the worker
	// outlasts, not a fatal condition: 96 lease attempts at this
	// 5 ms / 250 ms backoff span ≈22.5 s before jitter.
	retry := campaignd.DefaultRetryPolicy()
	retry.Base = 5 * time.Millisecond
	retry.Max = 250 * time.Millisecond
	retry.Lease = 96
	soakWorker := func(ctx context.Context, id string, seed uint64, exec campaign.Executor) (*chaos.Transport, error) {
		tr := chaos.NewTransport(soakPlan(seed), nil)
		pol := retry
		return tr, worker.Run(ctx, worker.Config{
			Server:    "http://" + addr,
			ID:        id,
			Exec:      exec,
			Workers:   2,
			Batch:     8,
			Poll:      10 * time.Millisecond,
			Drain:     true,
			Transport: tr,
			Retry:     &pol,
			Logf:      t.Logf,
		})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var injected uint64
	errs := map[string]error{}
	launch := func(ctx context.Context, id string, seed uint64, exec campaign.Executor) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := soakWorker(ctx, id, seed, exec)
			mu.Lock()
			injected += tr.InjectedTotal()
			errs[id] = err
			mu.Unlock()
		}()
	}

	// Worker churn: w0 is killed mid-shard after ~25 jobs and respawned
	// under a new identity; w1 and w2 run to drain.
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	launch(killCtx, "soak-w0", 101, killAfter(slowExec, 25, kill))
	launch(context.Background(), "soak-w1", 102, slowExec)
	launch(context.Background(), "soak-w2", 103, slowExec)
	select {
	case <-killCtx.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("worker soak-w0 was never killed; the churn script stalled")
	}
	t.Log("soak: worker soak-w0 killed mid-shard; respawning as soak-w0r")
	launch(context.Background(), "soak-w0r", 104, slowExec)

	// Coordinator churn: once the fleet has made real progress, restart
	// the coordinator over the same journals and address.
	waitProgress := func(min int) {
		deadline := time.Now().Add(30 * time.Second)
		for srv1.Metrics().JobsDone < min {
			if time.Now().After(deadline) {
				t.Fatalf("no fleet progress: %d jobs done, want %d", srv1.Metrics().JobsDone, min)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitProgress(spec.NumJobs() / 4)
	before := srv1.Metrics().JobsDone
	t.Logf("soak: restarting coordinator at %d/%d jobs", before, spec.NumJobs())
	// Abrupt close: live connections die mid-flight. Journal lines are
	// single unbuffered writes, so recovery sees whole lines only.
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("closing coordinator: %v", err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv2, hs2 := startCoord(ln2)
	defer hs2.Close()
	defer srv2.Close()
	if got := srv2.Metrics().JobsDone; got < before {
		t.Fatalf("recovery lost results: %d jobs after restart, %d before", got, before)
	}

	wg.Wait()
	mu.Lock()
	for id, err := range errs { //grinchvet:ignore maporder error reporting
		if id == "soak-w0" {
			// The killed worker must die of its cancelled context, nothing
			// else.
			if !errors.Is(err, context.Canceled) {
				t.Errorf("killed worker %s: err = %v, want context.Canceled", id, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("worker %s: %v", id, err)
		}
	}
	mu.Unlock()
	if t.Failed() {
		t.FailNow()
	}
	if injected == 0 {
		t.Fatal("the soak injected zero faults; nothing was exercised")
	}
	t.Logf("soak: fleet drained through %d injected faults", injected)

	// The oracle: after worker churn, coordinator churn, and every
	// injected fault, the merged bytes equal the single-process run.
	got, err := srv2.Output(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSONL) {
		t.Fatalf("soak merged JSONL differs from single-process run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	fileJSONL, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileJSONL, wantJSONL) {
		t.Fatal("soak merged JSONL file differs from single-process run")
	}
	fileCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileCSV, wantCSV) {
		t.Fatal("soak merged CSV file differs from single-process run")
	}

	m := srv2.Metrics()
	fs := srv2.FleetStatus()
	t.Logf("soak: %d jobs, %d duplicates absorbed, %d shed, %d reissues; fleet retries=%d backoff=%dms",
		m.JobsDone, m.Duplicates, m.Shed, m.Reissues, fs.Retry.WorkerRetriesTotal, fs.Retry.WorkerBackoffMSTotal)
	if m.JobsDone != spec.NumJobs() {
		t.Fatalf("jobs done = %d, want %d", m.JobsDone, spec.NumJobs())
	}
}
