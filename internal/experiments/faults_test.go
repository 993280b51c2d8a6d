package experiments

import (
	"bytes"
	"context"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/faults"
	"grinch/internal/obs"
)

// faultedRecoverySpec is a small full-recovery campaign with a
// structured-fault axis exercising every fault kind plus the retry
// policy — the integration surface of the robustness stack.
func faultedRecoverySpec() campaign.Spec {
	return campaign.Spec{
		Name:   "faulted-recovery",
		Kind:   KindRecovery,
		Seed:   2021,
		Trials: 2,
		Budget: 4000,
		FaultPlans: []faults.Plan{
			{Name: "mild", Faults: []faults.Fault{
				{Kind: faults.KindDrop, Probability: 0.05},
			}},
			{Name: "mixed", Seed: 3, Faults: []faults.Fault{
				{Kind: faults.KindDrop, Probability: 0.1},
				{Kind: faults.KindBurst, FalsePresence: 0.2, FalseAbsence: 0.1, Start: 50, Length: 20, Period: 200},
				{Kind: faults.KindMisalign, Offset: 1, Start: 300, Length: 5, Period: 500},
				{Kind: faults.KindTransient, Probability: 0.02},
			}},
		},
		Retry:      &campaign.RetrySpec{Attempts: 2, BackoffPS: 500},
		DeadlinePS: 0,
	}
}

// runFaulted executes the faulted campaign and returns the
// deterministic JSONL, CSV and trace bytes.
func runFaulted(t *testing.T, workers int) (jsonl, csvb, trace []byte) {
	t.Helper()
	var jb, cb, tb bytes.Buffer
	tw := obs.NewWriter(&tb)
	_, err := campaign.Run(context.Background(), faultedRecoverySpec(), Execute,
		campaign.Options{
			Workers: workers,
			Sinks:   []campaign.Sink{&campaign.JSONLSink{W: &jb}, &campaign.CSVSink{W: &cb}},
			Trace:   tw,
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), tb.Bytes()
}

// TestFaultCampaignByteReproducible extends the determinism contract to
// fault-injected campaigns: with a fixed seed, result sinks and the
// event trace are byte-identical at -workers=1 and -workers=8, because
// injection decisions are random-access in the encryption counter and
// never depend on scheduling.
func TestFaultCampaignByteReproducible(t *testing.T) {
	j1, c1, t1 := runFaulted(t, 1)
	j8, c8, t8 := runFaulted(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Error("fault-injected JSONL differs between -workers=1 and -workers=8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("fault-injected CSV differs between -workers=1 and -workers=8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("fault-injected trace differs between -workers=1 and -workers=8")
	}
	// The campaign must actually have injected faults, or the test
	// proves nothing.
	events, err := obs.ReadAll(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for _, e := range events {
		if e.Kind == obs.KindFaultInjected {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("traced fault campaign recorded no fault_injected events")
	}
}

// TestBurstIntensityRobustnessCurve is the acceptance sweep: the same
// recovery attack under increasing burst intensity recovers the full
// key at low intensity and degrades to a structured partial result —
// not an executor error — at high intensity.
func TestBurstIntensityRobustnessCurve(t *testing.T) {
	spec := campaign.Spec{
		Name:   "burst-curve",
		Kind:   KindRecovery,
		Seed:   7,
		Trials: 2,
		Budget: 20_000,
		FaultPlans: []faults.Plan{
			{Name: "low", Faults: []faults.Fault{
				{Kind: faults.KindBurst, FalsePresence: 0.05},
			}},
			{Name: "high", Faults: []faults.Fault{
				{Kind: faults.KindBurst, FalsePresence: 0.3, FalseAbsence: 0.85},
			}},
		},
	}
	col := &campaign.Collector{}
	if _, err := campaign.Run(context.Background(), spec, Execute,
		campaign.Options{Workers: 4, Sinks: []campaign.Sink{col}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range col.Results {
		if r.Failed {
			t.Fatalf("job %d errored instead of degrading: %s", r.Job, r.Err)
		}
		switch r.Point.Fault {
		case "low":
			if !r.Correct || r.DroppedOut || r.Partial {
				t.Errorf("low-intensity job %d did not fully recover: %+v", r.Job, r.Measurement)
			}
		case "high":
			if !r.Partial || !r.DroppedOut {
				t.Errorf("high-intensity job %d did not degrade to a partial result: %+v", r.Job, r.Measurement)
			}
			if r.Reason == "" {
				t.Errorf("high-intensity job %d has no failure reason", r.Job)
			}
		default:
			t.Fatalf("unexpected fault coordinate %q", r.Point.Fault)
		}
		if r.Faults == 0 {
			t.Errorf("job %d reports zero injected faults", r.Job)
		}
	}
}

// TestRetriesCountEveryRetryEvent pins Measurement.Retries to the
// attack's retry total: on a traced campaign under transient faults,
// each job's record must carry exactly as many retries as its trace
// holds retry events, for first-round jobs and full recoveries alike,
// converged or not.
func TestRetriesCountEveryRetryEvent(t *testing.T) {
	plan := faults.Plan{Name: "transient", Faults: []faults.Fault{
		{Kind: faults.KindTransient, Probability: 0.05},
	}}
	for _, kind := range []string{KindFirstRound, KindRecovery} {
		spec := campaign.Spec{
			Name:       "retries-" + kind,
			Kind:       kind,
			Seed:       7,
			Trials:     4,
			Budget:     100_000,
			FaultPlans: []faults.Plan{plan},
			Retry:      &campaign.RetrySpec{Attempts: 3},
		}
		if kind == KindFirstRound {
			spec.LineWords, spec.Flush, spec.ProbeRounds = []int{1}, []bool{true}, []int{1}
		}
		var tb bytes.Buffer
		tw := obs.NewWriter(&tb)
		col := &campaign.Collector{}
		if _, err := campaign.Run(context.Background(), spec, Execute,
			campaign.Options{Workers: 2, Sinks: []campaign.Sink{col}, Trace: tw}); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadAll(bytes.NewReader(tb.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]uint64{}
		for _, e := range events {
			if e.Kind == obs.KindRetry {
				want[e.Job]++
			}
		}
		total := uint64(0)
		for _, r := range col.Results {
			if r.Failed {
				t.Fatalf("%s job %d failed: %s", kind, r.Job, r.Err)
			}
			if r.Retries != want[r.Job] {
				t.Errorf("%s job %d: retries = %d, trace holds %d retry events", kind, r.Job, r.Retries, want[r.Job])
			}
			total += want[r.Job]
		}
		if total == 0 {
			t.Fatalf("%s: the faulted campaign retried nothing, so the test proves nothing", kind)
		}
	}
}
