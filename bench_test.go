package grinch

// Benchmark harness: one benchmark family per table/figure of the GRINCH
// paper plus ablations for the design choices called out in DESIGN.md §6.
// Every attack benchmark reports the paper's own cost metric — victim
// encryptions — via ReportMetric("encryptions/op").

import (
	"fmt"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/core"
	"grinch/internal/countermeasure"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
	"grinch/internal/probe"
	"grinch/internal/rng"
	"grinch/internal/soc"
)

// attackFirstRound runs one first-round attack and returns its
// encryption cost. tracer (usually nil) threads event tracing through
// the channel and attacker, for the tracing-overhead benchmarks.
func attackFirstRound(b *testing.B, key bitutil.Word128, ocfg oracle.Config, seed, budget uint64, tracer obs.Tracer) uint64 {
	b.Helper()
	ch, err := oracle.New(key, ocfg)
	if err != nil {
		b.Fatal(err)
	}
	ch.SetTracer(tracer)
	a, err := core.NewAttacker(ch, core.Config{Seed: seed, TotalBudget: budget, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	out, err := a.AttackRound(1, nil, nil)
	if err != nil {
		return ch.Encryptions() // budget cells report their cap
	}
	return out.Encryptions
}

func benchFirstRound(b *testing.B, ocfg oracle.Config, budget uint64) {
	r := rng.New(2021)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		total += attackFirstRound(b, key, ocfg, r.Uint64(), budget, nil)
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
}

// BenchmarkAttackNilTracer and BenchmarkAttackTraced pin the
// observability cost model (DESIGN.md §10): with a nil tracer the hot
// path pays only nil checks, so NilTracer must stay within noise of the
// untraced baseline (BenchmarkFig3/WithFlush/ProbeRound1 is the same
// workload); Traced shows the real price of buffering the full event
// stream.
func BenchmarkAttackNilTracer(b *testing.B) {
	r := rng.New(2021)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		total += attackFirstRound(b, key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}, r.Uint64(), 2_000_000, nil)
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
}

func BenchmarkAttackTraced(b *testing.B) {
	r := rng.New(2021)
	var total uint64
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		buf := &obs.Buffer{Job: i}
		total += attackFirstRound(b, key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}, r.Uint64(), 2_000_000, buf)
		events += len(buf.Events)
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// attackFirstRoundMetrics is attackFirstRound with a metrics registry
// (possibly nil) threaded through the attacker, for the fleet-metrics
// cost model.
func attackFirstRoundMetrics(b *testing.B, key bitutil.Word128, ocfg oracle.Config, seed, budget uint64, reg *metrics.Registry) uint64 {
	b.Helper()
	ch, err := oracle.New(key, ocfg)
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.NewAttacker(ch, core.Config{Seed: seed, TotalBudget: budget, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	out, err := a.AttackRound(1, nil, nil)
	if err != nil {
		return ch.Encryptions()
	}
	return out.Encryptions
}

// BenchmarkAttackNilMetrics and BenchmarkAttackMetrics pin the
// fleet-metrics cost model (DESIGN.md §14) the same way the tracer
// pair above pins §10's: with a nil registry every emission is one
// nil-check branch, so NilMetrics must stay within noise of the
// untraced baseline; Metrics shows the live price of the pre-resolved
// atomic counters and histograms.
func BenchmarkAttackNilMetrics(b *testing.B) {
	r := rng.New(2021)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		total += attackFirstRoundMetrics(b, key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}, r.Uint64(), 2_000_000, nil)
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
}

func BenchmarkAttackMetrics(b *testing.B) {
	r := rng.New(2021)
	reg := metrics.New() // shared across iterations, as a campaign would share it
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		total += attackFirstRoundMetrics(b, key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}, r.Uint64(), 2_000_000, reg)
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
	b.ReportMetric(float64(len(reg.Snapshot())), "series")
}

// BenchmarkFig3 regenerates the two Fig. 3 series; probing rounds 1–5
// are benchmarked directly (later rounds belong to cmd/experiments — at
// rounds 9–10 a single attack costs ~1M encryptions).
func BenchmarkFig3(b *testing.B) {
	for _, flush := range []bool{true, false} {
		name := "WithFlush"
		if !flush {
			name = "WithoutFlush"
		}
		for pr := 1; pr <= 5; pr++ {
			b.Run(fmt.Sprintf("%s/ProbeRound%d", name, pr), func(b *testing.B) {
				benchFirstRound(b, oracle.Config{ProbeRound: pr, Flush: flush, LineWords: 1}, 2_000_000)
			})
		}
	}
}

// BenchmarkTable1 regenerates Table I's tractable cells (drop-out cells
// are capped at a 200k budget so the benchmark terminates; the paper
// likewise drops >1M cells).
func BenchmarkTable1(b *testing.B) {
	cells := []struct{ lineWords, probeRound int }{
		{1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
		{2, 1}, {2, 2}, {2, 3},
		{4, 1}, {4, 2},
		{8, 1},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("Line%dWords/ProbeRound%d", c.lineWords, c.probeRound), func(b *testing.B) {
			ocfg := oracle.Config{ProbeRound: c.probeRound, Flush: true, LineWords: c.lineWords}
			benchFirstRound(b, ocfg, 200_000)
			reportPipelineWork(b, ocfg, 200_000)
		})
	}
}

// countingOracle counts the batched pipeline's work on an oracle: the
// plaintext lanes each accepted PrimeBatch evaluated, and the
// observations that took the scalar CollectMasked path instead.
type countingOracle struct {
	*oracle.Oracle
	lanesPrimed, scalarCollects uint64
}

func (c *countingOracle) PrimeBatch(pts []uint64, targetRound int, raw []probe.LineSet) bool {
	ok := c.Oracle.PrimeBatch(pts, targetRound, raw)
	if ok {
		c.lanesPrimed += uint64(len(pts))
	}
	return ok
}

func (c *countingOracle) CollectMasked(pt uint64, targetRound int) (set, mask probe.LineSet) {
	c.scalarCollects++
	return c.Oracle.CollectMasked(pt, targetRound)
}

// reportPipelineWork runs one counted first-round attack outside the
// timed loop, on the timed loop's first key and seed, and reports how
// the batched pipeline split its observations and how many the
// eliminations folded in. A pipeline that primed more speculative
// lanes or fell back to scalar collects more often, or an eliminator
// that needed more observations, moves these counters on any host.
func reportPipelineWork(b *testing.B, ocfg oracle.Config, budget uint64) {
	reportObservations(b, "GIFT-64", func(reg *metrics.Registry) {
		r := rng.New(2021)
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		ch := newCountingOracle(b, key, ocfg)
		a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64(), TotalBudget: budget, Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		a.AttackRound(1, nil, nil) // a budget cell's work up to its cap counts too
		ch.report(b)
	})
}

// newCountingOracle wraps a fresh oracle.New channel in a countingOracle.
func newCountingOracle(b *testing.B, key bitutil.Word128, ocfg oracle.Config) *countingOracle {
	o, err := oracle.New(key, ocfg)
	if err != nil {
		b.Fatal(err)
	}
	return &countingOracle{Oracle: o}
}

// report reports the counted pipeline work.
func (c *countingOracle) report(b *testing.B) {
	b.ReportMetric(float64(c.lanesPrimed), "lanes_primed/op")
	b.ReportMetric(float64(c.scalarCollects), "scalar_collects/op")
}

// reportObservations runs attack once outside the timed loop with a
// fresh metrics registry and reports the observations its eliminations
// folded in, read from grinch_attack_observations_total for cipher.
func reportObservations(b *testing.B, cipher string, attack func(reg *metrics.Registry)) {
	b.StopTimer()
	reg := metrics.New()
	attack(reg)
	observations := reg.Counter("grinch_attack_observations_total", "", metrics.L("cipher", cipher)).Value()
	b.ReportMetric(float64(observations), "observations/op")
}

// BenchmarkTable2 regenerates Table II: the platform races measuring
// the earliest probe-able round.
func BenchmarkTable2(b *testing.B) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	for _, mhz := range []uint64{10, 25, 50} {
		b.Run(fmt.Sprintf("SingleSoC/%dMHz", mhz), func(b *testing.B) {
			var round int
			for i := 0; i < b.N; i++ {
				round = soc.NewSingleSoC(key, soc.DefaultParams(mhz)).EarliestProbeRound()
			}
			b.ReportMetric(float64(round), "earliest_round")
			reportRaceObservations(b, soc.NewSingleSoC(key, soc.DefaultParams(mhz)))
		})
		b.Run(fmt.Sprintf("MPSoC/%dMHz", mhz), func(b *testing.B) {
			var round int
			for i := 0; i < b.N; i++ {
				round = soc.NewMPSoC(key, soc.DefaultParams(mhz)).EarliestProbeRound()
			}
			b.ReportMetric(float64(round), "earliest_round")
			reportRaceObservations(b, soc.NewMPSoC(key, soc.DefaultParams(mhz)))
		})
	}
}

// reportRaceObservations runs one metered race outside the timed loop
// and reports its probe observation passes. Table II reads only the
// first window, so the race makes one; a race that went back to
// probing the whole session moves this counter on any host.
func reportRaceObservations(b *testing.B, p interface {
	SetMetrics(r *metrics.Registry)
	EarliestProbeRound() int
}) {
	b.StopTimer()
	reg := metrics.New()
	p.SetMetrics(reg)
	p.EarliestProbeRound()
	observations := reg.Counter("grinch_probe_observations_total", "", metrics.L("primitive", "flush_reload")).Value()
	b.ReportMetric(float64(observations), "probe_observations/op")
}

// BenchmarkFullKeyRecovery is the paper's headline: complete 128-bit
// recovery under the best probing conditions ("fewer than 400
// encryptions").
func BenchmarkFullKeyRecovery(b *testing.B) {
	r := rng.New(7)
	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		ch, err := oracle.New(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64()})
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.RecoverKey()
		if err != nil || res.Key != key {
			b.Fatalf("recovery failed: %v", err)
		}
		total += res.Encryptions
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
}

// BenchmarkCountermeasure measures the §IV-C protections: the whitened
// schedule's attack (leaks sub-keys, defeats key assembly) and the
// throughput overhead of the reshaped table.
func BenchmarkCountermeasure(b *testing.B) {
	key := bitutil.Word128{Lo: 0x1111222233334444, Hi: 0x5555666677778888}
	b.Run("WhitenedScheduleAttack", func(b *testing.B) {
		r := rng.New(5)
		var total uint64
		for i := 0; i < b.N; i++ {
			k := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			vic := countermeasure.NewWhitenedCipher64(k)
			ch, err := oracle.NewFromTracer(vic, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64()})
			if err != nil {
				b.Fatal(err)
			}
			res, err := a.RecoverKey()
			if err != nil {
				b.Fatal(err)
			}
			if res.Key == k {
				b.Fatal("whitened schedule failed to protect the key")
			}
			total += res.Encryptions
		}
		b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
	})
	b.Run("ReshapedTableThroughput", func(b *testing.B) {
		c := countermeasure.NewHardenedCipher64(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.EncryptBlock(uint64(i))
		}
	})
	b.Run("ReferenceTableThroughput", func(b *testing.B) {
		c := gift.NewCipher64FromWord(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.EncryptBlock(uint64(i))
		}
	})
}

// BenchmarkAblation_LineGranularity isolates the cost of losing index
// bits to line width at a fixed (clean) probing round.
func BenchmarkAblation_LineGranularity(b *testing.B) {
	for _, lw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dWordsPerLine", lw), func(b *testing.B) {
			benchFirstRound(b, oracle.Config{ProbeRound: 1, Flush: true, LineWords: lw}, 200_000)
		})
	}
}

// BenchmarkAblation_ProbeMethod compares the two classical probing
// primitives on the same cache state (paper §III-C discusses why
// GRINCH prefers Flush+Reload).
func BenchmarkAblation_ProbeMethod(b *testing.B) {
	table := probe.TableLayout{Base: 0x1000, EntryBytes: 1, Entries: 16}
	victimTouch := func(c *cache.Cache, r *rng.Source) {
		for i := 0; i < 16; i++ {
			c.Access(table.EntryAddr(r.Intn(16)))
		}
	}
	b.Run("FlushReload", func(b *testing.B) {
		c := cache.MustNew(cache.PaperConfig(1))
		fr := &probe.FlushReload{Cache: c, Table: table}
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr.Flush()
			victimTouch(c, r)
			fr.Reload()
		}
	})
	b.Run("PrimeProbe", func(b *testing.B) {
		c := cache.MustNew(cache.PaperConfig(1))
		pp := &probe.PrimeProbe{Cache: c, Table: table, EvictionBase: 0x100000}
		r := rng.New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pp.Prime()
			victimTouch(c, r)
			pp.Probe()
		}
	})
}

// BenchmarkAblation_Replacement measures how the cache replacement
// policy affects raw simulation behaviour under a conflict-heavy
// workload (probe fidelity context for DESIGN.md §6).
func BenchmarkAblation_Replacement(b *testing.B) {
	for _, name := range []string{"lru", "fifo", "plru", "random"} {
		b.Run(name, func(b *testing.B) {
			cfg := cache.PaperConfig(1)
			cfg.Policy = cache.PolicyByName(name, 1)
			c := cache.MustNew(cfg)
			r := rng.New(3)
			addrs := make([]uint64, 4096)
			for i := range addrs {
				addrs[i] = uint64(r.Intn(4096))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i%len(addrs)])
			}
			b.ReportMetric(c.Stats().HitRate()*100, "hit%")
		})
	}
}

// BenchmarkAblation_Noise sweeps injected observation noise against
// attack effort (threshold-mode elimination).
func BenchmarkAblation_Noise(b *testing.B) {
	for _, noise := range []float64{0, 0.02, 0.05, 0.10} {
		b.Run(fmt.Sprintf("FalseRate%.0f%%", noise*100), func(b *testing.B) {
			r := rng.New(11)
			var total uint64
			for i := 0; i < b.N; i++ {
				key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
				ch, err := oracle.New(key, oracle.Config{
					ProbeRound: 1, Flush: true, LineWords: 1,
					FalsePresence: noise, FalseAbsence: noise, Seed: r.Uint64(),
				})
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.Config{Seed: r.Uint64(), TotalBudget: 500_000}
				if noise > 0 {
					cfg.Threshold = 0.8
					cfg.MinObservations = 24
				}
				a, err := core.NewAttacker(ch, cfg)
				if err != nil {
					b.Fatal(err)
				}
				out, err := a.AttackRound(1, nil, nil)
				if err != nil {
					total += ch.Encryptions()
					continue
				}
				total += out.Encryptions
			}
			b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
		})
	}
}

// BenchmarkAblation_Bitsliced compares the table-based (leaky) and
// bitsliced (constant-time) cipher implementations — the cost of the
// software countermeasure. With the nibble-sliced S-box circuit the
// constant-time cipher is the faster of the two.
func BenchmarkAblation_Bitsliced(b *testing.B) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	c64 := gift.NewCipher64FromWord(key)
	b.Run("Gift64Table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c64.EncryptBlock(uint64(i))
		}
	})
	b.Run("Gift64Bitsliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c64.EncryptBlockBitsliced(uint64(i))
		}
	})
	var arr [16]byte
	c128 := gift.NewCipher128(arr)
	b.Run("Gift128Table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c128.EncryptBlock(bitutil.Word128{Lo: uint64(i)})
		}
	})
	b.Run("Gift128Bitsliced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c128.EncryptBlockBitsliced(bitutil.Word128{Lo: uint64(i)})
		}
	})
}

// BenchmarkPlatformSession measures the cost of one probed platform
// encryption (the unit of Table II and the platform-channel attack).
func BenchmarkPlatformSession(b *testing.B) {
	key := bitutil.Word128{Lo: 1, Hi: 2}
	b.Run("SingleSoC10MHz", func(b *testing.B) {
		s := soc.NewSingleSoC(key, soc.DefaultParams(10))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RunSession(uint64(i))
		}
	})
	b.Run("MPSoC50MHz", func(b *testing.B) {
		m := soc.NewMPSoC(key, soc.DefaultParams(50))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RunSession(uint64(i))
		}
	})
	b.Run("MPSoC50MHzEarlyStandDown", func(b *testing.B) {
		m := soc.NewMPSoC(key, soc.DefaultParams(50))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RunSessionUntil(uint64(i), 2)
		}
	})
}
