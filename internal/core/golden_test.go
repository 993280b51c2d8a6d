package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/faults"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
	"grinch/internal/present"
)

// The cross-cipher goldens pin every observable output of a full key
// recovery — the result, the JSONL trace and the metrics exposition —
// for each cipher the attack core drives. Regenerate them with
//
//	go test ./internal/core -run TestGolden -update
//
// and review the diff: a refactor of the attack core must leave these
// bytes unchanged.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run TestGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file (%d bytes, want %d)", name, len(got), len(want))
	}
}

// goldenRun collects the three outputs of one attack run.
type goldenRun struct {
	trace bytes.Buffer
	tw    *obs.Writer
	reg   *metrics.Registry
}

func newGoldenRun() *goldenRun {
	g := &goldenRun{reg: metrics.New()}
	g.tw = obs.NewWriter(&g.trace)
	return g
}

// config returns an attack config wired to the run's tracer and
// registry.
func (g *goldenRun) config(cfg core.Config) core.Config {
	cfg.Tracer = g.tw
	cfg.Metrics = g.reg
	return cfg
}

// check compares the result (with its error), and optionally the trace
// and the metrics snapshot, against the golden files prefixed name.
func (g *goldenRun) check(t *testing.T, name string, res any, err error, trace bool) {
	t.Helper()
	checkGolden(t, name+".result.json", resultJSON(t, res, err))
	if trace {
		if err := g.tw.Flush(); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+".trace.txt", traceDigest(t, g.trace.Bytes()))
	}
	var prom bytes.Buffer
	if err := metrics.WriteProm(&prom, g.reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name+".metrics.prom", prom.Bytes())
}

// traceDigest summarizes a JSONL trace as its event count per kind plus
// the SHA-256 of the exact bytes: the 2-word GIFT-64 trace alone is
// ~9 MB, too large to commit, and the digest pins it just as tightly.
func traceDigest(t *testing.T, trace []byte) []byte {
	t.Helper()
	events, err := obs.ReadAll(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "events %d\n", len(events))
	for _, k := range names {
		fmt.Fprintf(&b, "%s %d\n", k, kinds[obs.Kind(k)])
	}
	fmt.Fprintf(&b, "sha256 %x\n", sha256.Sum256(trace))
	return b.Bytes()
}

func resultJSON(t *testing.T, res any, err error) []byte {
	t.Helper()
	var msg string
	if err != nil {
		msg = err.Error()
	}
	b, jerr := json.MarshalIndent(struct {
		Result any    `json:"result"`
		Error  string `json:"error,omitempty"`
	}{res, msg}, "", "  ")
	if jerr != nil {
		t.Fatal(jerr)
	}
	return append(b, '\n')
}

var goldenKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

func goldenOracle(lineWords int) oracle.Config {
	return oracle.Config{ProbeRound: 1, Flush: true, LineWords: lineWords}
}

func goldenPresentKey() [10]byte {
	return [10]byte{0xfe, 0xdc, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}
}

// TestGoldenGIFT64 pins full recovery at 1-word lines and at 2-word
// lines, where a fifth hypothesis pass disambiguates round key 4.
func TestGoldenGIFT64(t *testing.T) {
	for _, lw := range []int{1, 2} {
		ch, err := oracle.New(goldenKey, goldenOracle(lw))
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenRun()
		a, err := core.NewAttacker(ch, g.config(core.Config{Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RecoverKey()
		if err != nil || res.Key != goldenKey {
			t.Fatalf("lw%d: recovery failed: %v", lw, err)
		}
		g.check(t, "gift64-lw"+string(rune('0'+lw)), res, err, true)
	}
}

// TestGoldenGIFT128 pins full recovery at 1-word and 2-word lines.
func TestGoldenGIFT128(t *testing.T) {
	for _, lw := range []int{1, 2} {
		ch, err := oracle.New128(goldenKey, goldenOracle(lw))
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenRun()
		a, err := core.NewAttacker128(ch, g.config(core.Config{Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.RecoverKey128()
		if err != nil || res.Key != goldenKey {
			t.Fatalf("lw%d: recovery failed: %v", lw, err)
		}
		g.check(t, "gift128-lw"+string(rune('0'+lw)), res, err, true)
	}
}

// TestGoldenPRESENT80 pins full recovery at 1-word lines (result and
// metrics) and the error that refuses 2-word lines.
func TestGoldenPRESENT80(t *testing.T) {
	key := goldenPresentKey()
	ch, err := oracle.NewPresent(present.NewCipher80(key), goldenOracle(1))
	if err != nil {
		t.Fatal(err)
	}
	g := newGoldenRun()
	a, err := core.NewAttackerP(ch, core.Config{Seed: 7, Metrics: g.reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RecoverKey80()
	if err != nil || res.Key != key {
		t.Fatalf("recovery failed: %v", err)
	}
	g.check(t, "present80-lw1", res, err, false)

	ch2, err := oracle.NewPresent(present.NewCipher80(key), goldenOracle(2))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := core.NewAttackerP(ch2, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a2.RecoverKey80()
	if err == nil {
		t.Fatal("2-word PRESENT recovery was not refused")
	}
	checkGolden(t, "present80-lw2.error.txt", []byte(err.Error()+"\n"))
}

// TestGoldenGIFT64Faults pins a recovery through the fault injector
// with every robustness mechanism engaged: transient failures retried,
// dropped windows quarantined, and bursts of false absences forcing
// threshold-relaxing restarts.
func TestGoldenGIFT64Faults(t *testing.T) {
	ch, err := oracle.New(goldenKey, goldenOracle(1))
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Name: "golden", Seed: 3, Faults: []faults.Fault{
		{Kind: faults.KindTransient, Probability: 0.1},
		{Kind: faults.KindDrop, Probability: 0.05},
		{Kind: faults.KindBurst, Start: 20, Length: 10, Period: 200, FalseAbsence: 0.5},
	}}
	inj := faults.NewInjector(ch, plan, 11)
	g := newGoldenRun()
	inj.SetTracer(g.tw)
	a, err := core.NewAttacker(inj, g.config(core.Config{
		Seed:        7,
		Retry:       core.RetryPolicy{MaxAttempts: 3, BackoffPS: 100},
		Quarantine:  true,
		MaxRestarts: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RecoverKey()
	if err != nil || res.Key != goldenKey {
		t.Fatalf("faulted recovery failed: %v", err)
	}
	g.check(t, "gift64-faults", res, err, true)
	st := inj.Stats()
	if st.Transients == 0 || st.Drops == 0 || st.Bursts == 0 {
		t.Fatalf("fault plan did not exercise every kind: %+v", st)
	}
	for _, name := range []string{"grinch_attack_retries_total", "grinch_attack_quarantined_total", "grinch_attack_restarts_total"} {
		if s, _ := metrics.Find(g.reg.Snapshot(), name, metrics.L("cipher", "GIFT-64")); s.Value == 0 {
			t.Fatalf("%s = 0: the run did not exercise that mechanism", name)
		}
	}
}

// TestGoldenGraceful pins the PartialResult of budget-starved graceful
// recoveries on both GIFT variants.
func TestGoldenGraceful(t *testing.T) {
	ch64, err := oracle.New(goldenKey, goldenOracle(1))
	if err != nil {
		t.Fatal(err)
	}
	a64, err := core.NewAttacker(ch64, core.Config{Seed: 7, TotalBudget: 40})
	if err != nil {
		t.Fatal(err)
	}
	res64, p64 := a64.RecoverKeyGraceful()
	if p64 == nil {
		t.Fatal("budget-starved GIFT-64 run reported full success")
	}
	checkGolden(t, "gift64-graceful.partial.json", resultJSON(t, struct {
		Result  core.KeyResult
		Partial *core.PartialResult
	}{res64, p64}, nil))

	ch128, err := oracle.New128(goldenKey, goldenOracle(1))
	if err != nil {
		t.Fatal(err)
	}
	a128, err := core.NewAttacker128(ch128, core.Config{Seed: 7, TotalBudget: 40})
	if err != nil {
		t.Fatal(err)
	}
	res128, p128 := a128.RecoverKey128Graceful()
	if p128 == nil {
		t.Fatal("budget-starved GIFT-128 run reported full success")
	}
	checkGolden(t, "gift128-graceful.partial.json", resultJSON(t, struct {
		Result  any
		Partial *core.PartialResult
	}{res128, p128}, nil))
}
