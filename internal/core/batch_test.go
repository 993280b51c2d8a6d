package core

import (
	"bytes"
	"reflect"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
)

// differentialKey is the victim key of every batch differential run.
var differentialKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

// attackRun captures every observable output of one attack execution:
// the recovered key, the graceful partial result, the full trace event
// stream, the Prometheus metrics exposition, and the channel's
// encryption counter. The batch differential requires all of them to
// be identical between BatchAuto and BatchOff.
type attackRun struct {
	res     KeyResult
	partial *PartialResult
	events  []obs.Event
	prom    []byte
	encs    uint64
	err     error
}

// runWithMode attacks an oracle.New victim in the given mode.
func runWithMode(t *testing.T, mode BatchMode, ocfg oracle.Config, acfg Config, graceful bool) attackRun {
	t.Helper()
	return runOnVictim(t, mode, nil, ocfg, acfg, graceful)
}

// runOnVictim attacks vic through an oracle.NewFromTracer channel, or
// an oracle.New channel when vic is nil. A NewFromTracer oracle
// implements probe.BatchChannel but refuses every prime, so BatchAuto
// still installs the batch pipeline and meets the refusal at its first
// batched refill.
func runOnVictim(t *testing.T, mode BatchMode, vic oracle.Victim[uint64], ocfg oracle.Config, acfg Config, graceful bool) attackRun {
	t.Helper()
	var ch *oracle.Oracle
	var err error
	if vic == nil {
		ch, err = oracle.New(differentialKey, ocfg)
	} else {
		ch, err = oracle.NewFromTracer(vic, ocfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.Buffer
	reg := metrics.New()
	acfg.Batch = mode
	acfg.Tracer = &buf
	acfg.Metrics = reg
	a, err := NewAttacker(ch, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if mode == BatchAuto && a.batch == nil {
		t.Fatal("BatchAuto attacker did not engage the batch pipeline on a batch-capable oracle")
	}
	if mode == BatchOff && a.batch != nil {
		t.Fatal("BatchOff attacker kept a batch channel")
	}

	var run attackRun
	if graceful {
		run.res, run.partial = a.RecoverKeyGraceful()
	} else {
		run.res, run.err = a.RecoverKey()
	}
	run.events = buf.Events
	run.encs = ch.Encryptions()
	var prom bytes.Buffer
	if err := metrics.WriteProm(&prom, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	run.prom = prom.Bytes()
	return run
}

func diffRuns(t *testing.T, name string, batch, scalar attackRun) {
	t.Helper()
	if batch.res != scalar.res {
		t.Errorf("%s: KeyResult diverged:\n batch  %+v\n scalar %+v", name, batch.res, scalar.res)
	}
	if (batch.err == nil) != (scalar.err == nil) ||
		(batch.err != nil && batch.err.Error() != scalar.err.Error()) {
		t.Errorf("%s: error diverged: batch %v, scalar %v", name, batch.err, scalar.err)
	}
	if !reflect.DeepEqual(batch.partial, scalar.partial) {
		t.Errorf("%s: PartialResult diverged:\n batch  %+v\n scalar %+v", name, batch.partial, scalar.partial)
	}
	if batch.encs != scalar.encs {
		t.Errorf("%s: encryptions diverged: batch %d, scalar %d", name, batch.encs, scalar.encs)
	}
	if len(batch.events) != len(scalar.events) {
		t.Errorf("%s: event counts diverged: batch %d, scalar %d", name, len(batch.events), len(scalar.events))
	} else {
		for i := range batch.events {
			if batch.events[i] != scalar.events[i] {
				t.Errorf("%s: event %d diverged:\n batch  %+v\n scalar %+v", name, i, batch.events[i], scalar.events[i])
				break
			}
		}
	}
	if !bytes.Equal(batch.prom, scalar.prom) {
		t.Errorf("%s: metrics exposition diverged", name)
	}
}

// TestBatchScalarDifferentialClean runs the full key recovery over the
// clean-channel geometry grid in both modes and requires byte-identical
// results, traces, metrics and channel usage. Wide lines exercise the
// hypothesis-confirmation path; ProbeRound 3 exercises multi-round
// probe windows; no-flush exercises stale-access accumulation.
func TestBatchScalarDifferentialClean(t *testing.T) {
	for _, lw := range []int{1, 2, 4, 8} {
		for _, pr := range []int{1, 3} {
			for _, flush := range []bool{true, false} {
				if lw == 8 && (pr > 1 || !flush) {
					// A saturated 2-line channel burns the whole budget
					// without adding coverage beyond lw=8/pr=1/flush.
					continue
				}
				// Clean easy cells recover the key outright in well
				// under the budget; saturated cells (wide lines, long
				// probe windows) are capped so the grid also compares
				// mid-attack abort behaviour without burning minutes.
				budget := uint64(600_000)
				if lw >= 4 || pr > 1 || !flush {
					budget = 100_000
				}
				ocfg := oracle.Config{ProbeRound: pr, Flush: flush, LineWords: lw, Seed: 11}
				acfg := Config{Seed: 2021, TotalBudget: budget}
				name := "clean"
				batch := runWithMode(t, BatchAuto, ocfg, acfg, true)
				scalar := runWithMode(t, BatchOff, ocfg, acfg, true)
				diffRuns(t, name, batch, scalar)
			}
		}
	}
}

// TestBatchScalarDifferentialNoise covers the noisy configurations: a
// relaxed threshold, quarantine, restarts, and noise draws whose rng
// stream order is part of the byte-identity contract.
func TestBatchScalarDifferentialNoise(t *testing.T) {
	for _, lw := range []int{1, 4} {
		ocfg := oracle.Config{
			ProbeRound: 1, Flush: true, LineWords: lw, Seed: 23,
			FalsePresence: 0.05, FalseAbsence: 0.02,
		}
		acfg := Config{
			Seed: 7, Threshold: 0.8, MinObservations: 48,
			Quarantine: true, MaxRestarts: 2, TotalBudget: 2_000_000,
		}
		batch := runWithMode(t, BatchAuto, ocfg, acfg, true)
		scalar := runWithMode(t, BatchOff, ocfg, acfg, true)
		diffRuns(t, "noise", batch, scalar)
	}
}

// TestBatchScalarDifferentialEvictTime pins the Evict+Time interaction:
// the per-encryption probe mask cursor advances at commit time, so the
// masked observation stream must be identical to the scalar path's.
func TestBatchScalarDifferentialEvictTime(t *testing.T) {
	ocfg := oracle.Config{
		ProbeRound: 1, Flush: true, LineWords: 1, Seed: 5,
		Probe: oracle.ProbeEvictTime,
	}
	acfg := Config{Seed: 13, TotalBudget: 1_000_000, MinObservations: 8}
	batch := runWithMode(t, BatchAuto, ocfg, acfg, true)
	scalar := runWithMode(t, BatchOff, ocfg, acfg, true)
	diffRuns(t, "evicttime", batch, scalar)
}

// TestBatchScalarDifferentialBudgetAbort forces a mid-attack budget
// abort: the PartialResult degradation — which segment died, with how
// many observations — must be batch-invariant.
func TestBatchScalarDifferentialBudgetAbort(t *testing.T) {
	for _, budget := range []uint64{50, 700, 5_000} {
		ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 2, Seed: 3}
		acfg := Config{Seed: 17, TotalBudget: budget}
		batch := runWithMode(t, BatchAuto, ocfg, acfg, true)
		scalar := runWithMode(t, BatchOff, ocfg, acfg, true)
		if batch.partial == nil {
			t.Fatalf("budget %d did not abort", budget)
		}
		diffRuns(t, "budget", batch, scalar)
	}
}

// TestBatchScalarDifferentialRefusedPrime attacks through a channel
// that refuses every prime: the batch pipeline must rewind the refill
// it crafted and serve it, and every later refill, on the scalar path.
// The inputs cover a full recovery, a relaxed threshold with noise, and
// budgets that cut the first batched refill.
func TestBatchScalarDifferentialRefusedPrime(t *testing.T) {
	for _, c := range []struct {
		ocfg oracle.Config
		acfg Config
	}{
		{oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 11}, Config{Seed: 2021, TotalBudget: 600_000}},
		{oracle.Config{ProbeRound: 2, Flush: true, LineWords: 2, Seed: 3}, Config{Seed: 17, TotalBudget: 5_000}},
		{oracle.Config{ProbeRound: 1, Flush: true, LineWords: 2, Seed: 3}, Config{Seed: 17, TotalBudget: 30}},
		{
			oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Seed: 23, FalsePresence: 0.05, FalseAbsence: 0.02},
			Config{Seed: 7, Threshold: 0.8, MinObservations: 48, Quarantine: true, MaxRestarts: 2, TotalBudget: 200_000},
		},
	} {
		vic := gift.NewCipher64FromWord(differentialKey)
		batch := runOnVictim(t, BatchAuto, vic, c.ocfg, c.acfg, true)
		scalar := runOnVictim(t, BatchOff, vic, c.ocfg, c.acfg, true)
		diffRuns(t, "refused-prime", batch, scalar)
	}
}

// FuzzBatchMatchesScalar runs GIFT-64 key recovery over a fuzzed
// channel geometry and budget in both batch modes: result, partial
// result, encryption count, trace events and metrics must be
// identical. The budget spans 1..4096 encryptions, so it can cut an
// elimination inside its scalar warm-up, at the scalar crossover, and
// inside a batched refill.
func FuzzBatchMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), true, uint16(4095))
	f.Fuzz(func(t *testing.T, seed uint64, lineWords, probeRound uint8, flush bool, budget uint16) {
		ocfg := oracle.Config{
			ProbeRound: 1 + int(probeRound%3),
			Flush:      flush,
			LineWords:  1 << (lineWords % 4),
			Seed:       seed,
		}
		acfg := Config{Seed: seed, TotalBudget: 1 + uint64(budget)%4096}
		batch := runWithMode(t, BatchAuto, ocfg, acfg, true)
		scalar := runWithMode(t, BatchOff, ocfg, acfg, true)
		diffRuns(t, "fuzz", batch, scalar)
	})
}

// BenchmarkRecoverKey64Batch is the GIFT-64 full-recovery pair on the
// clean channel (probe round 1, flush, 1-word lines): the batched
// pipeline against the scalar reference path.
func BenchmarkRecoverKey64Batch(b *testing.B) {
	for _, c := range []struct {
		name string
		mode BatchMode
	}{{"auto", BatchAuto}, {"off", BatchOff}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var encs uint64
			for i := 0; i < b.N; i++ {
				key := bitutil.Word128{Lo: uint64(i) * 0x9e3779b97f4a7c15, Hi: uint64(i) + 1}
				ch := oracle.MustNew(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
				a, err := NewAttacker(ch, Config{Seed: uint64(i), Batch: c.mode})
				if err != nil {
					b.Fatal(err)
				}
				res, err := a.RecoverKey()
				if err != nil || res.Key != key {
					b.Fatalf("key %d not recovered: %v", i, err)
				}
				encs += res.Encryptions
			}
			b.ReportMetric(float64(encs)/float64(b.N), "encryptions/op")
		})
	}
}
