package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/experiments"
	"grinch/internal/faults"
	"grinch/internal/oracle"
	"grinch/internal/probe"
	"grinch/internal/soc"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{table1Trials: 2, fleetJobs: 40, cipherTrials: 1, table2Trials: 1, replay: 1}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 7, trace: trace, workers: 2, minReps: 1, workDir: t.TempDir(), size: tinySizes}
}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced
// at a tiny size: every named metric must be emitted, finite and carry
// its unit, and every output check must pass.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			var out bytes.Buffer
			res, err := execute(name, tinyConfig(t, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", name, trace, s.name, m, s.unit)
				}
			}
			if !trace {
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, res.Metrics[s.name].Value)
					}
				}
			}
		}
	}
}

type caps struct{ masked, batch, fallible bool }

func capsOf(ch probe.Channel) caps {
	_, m := ch.(probe.MaskedChannel)
	_, b := ch.(probe.BatchChannel)
	_, f := ch.(probe.FallibleChannel)
	return caps{m, b, f}
}

// TestTapForwardsCapabilities pins that the channel decorator exposes
// exactly the wrapped channel's optional interfaces.
func TestTapForwardsCapabilities(t *testing.T) {
	key := bitutil.Word128{Lo: 1, Hi: 2}
	plain := oracle.MustNew(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
	evict := oracle.MustNew(key, oracle.Config{ProbeRound: 1, LineWords: 2, Probe: oracle.ProbeEvictTime})
	plan := faults.Plan{Name: "drop", Faults: []faults.Fault{{Kind: faults.KindDrop, Probability: 0.1}}}
	chans := map[string]probe.Channel{
		"oracle":      plain,
		"evict+time":  evict,
		"injector":    faults.NewInjector(plain, plan, 1),
		"soc channel": &soc.PlatformChannel{P: soc.NewSingleSoC(key, soc.DefaultParams(10)), LineBytes: 1},
	}
	for name, ch := range chans {
		tap := &chanTap{inner: ch}
		if got, want := capsOf(tap.wrap()), capsOf(ch); got != want {
			t.Errorf("%s: decorated capabilities %+v, wrapped channel has %+v", name, got, want)
		}
	}
}

// TestTracedExecutorMatchesExecute runs first-round grids through
// experiments.Execute and through the traced executor, on the batched
// path, the scalar path and under fault injection: the JSONL bytes and
// the encryption counts must be identical, and only the batched grid
// may prime batches through the decorator.
func TestTracedExecutorMatchesExecute(t *testing.T) {
	base := experiments.Table1Spec(experiments.Options{Seed: 11, Trials: 2}, []int{1, 2}, []int{1, 2})
	scalar := base
	scalar.ScalarPath = true
	faulted := base
	faulted.FaultPlans = []faults.Plan{{Name: "mixed", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.KindDrop, Probability: 0.1},
		{Kind: faults.KindTransient, Probability: 0.02},
	}}}
	faulted.Retry = &campaign.RetrySpec{Attempts: 2, BackoffPS: 500}
	for name, spec := range map[string]campaign.Spec{"batched": base, "scalar": scalar, "faulted": faulted} {
		run := func(exec campaign.Executor) ([]byte, uint64) {
			var buf bytes.Buffer
			rep, err := campaign.Run(context.Background(), spec, exec, campaign.Options{Workers: 2, Sinks: []campaign.Sink{&campaign.JSONLSink{W: &buf}}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buf.Bytes(), rep.Encryptions
		}
		want, wantEnc := run(experiments.Execute)
		tr := newTracer(config{})
		got, gotEnc := run(tr.firstRound)
		if !bytes.Equal(got, want) || gotEnc != wantEnc {
			t.Errorf("%s: traced executor output (%d encryptions) differs from experiments.Execute (%d)", name, gotEnc, wantEnc)
		}
		if primed := tr.primed > 0; primed != (name == "batched") {
			t.Errorf("%s: %d blocks primed through the decorator", name, tr.primed)
		}
	}
}

// TestTracedCiphersMatchCompareCiphers pins the traced recovery loop to
// experiments.CompareCiphers.
func TestTracedCiphersMatchCompareCiphers(t *testing.T) {
	opt := experiments.Options{Seed: 5, Trials: 2}
	got, err := newTracer(config{}).compareCiphers(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.CompareCiphers(opt); !reflect.DeepEqual(got, want) {
		t.Errorf("traced rows %+v, CompareCiphers %+v", got, want)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the program
// in step: same workloads, same metrics, same units.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(specs))
			return
		}
		for i, m := range listed {
			if m.Name != specs[i].name || m.Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program %s %s", kind, i, m.Name, m.Unit, specs[i].name, specs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
