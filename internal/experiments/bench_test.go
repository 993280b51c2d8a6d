package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// benchOpts is a small Table I grid (2 line sizes × 3 probe rounds ×
// 2 trials = 12 jobs) that finishes in seconds but still has enough
// cells to show pool scaling. The campaign determinism contract means
// every worker count below computes the identical table.
func benchOpts(workers int) Options {
	return Options{Trials: 2, Budget: 100_000, Seed: 2021, Workers: workers}
}

// BenchmarkTable1Campaign compares serial against pooled execution of
// the same Table I grid through the campaign orchestrator. The recorded
// speedup lives in EXPERIMENTS.md ("Campaign orchestrator").
func BenchmarkTable1Campaign(b *testing.B) {
	lineWords := []int{1, 2}
	probeRounds := []int{1, 2, 3}
	// Fixed worker counts rather than GOMAXPROCS so the comparison is
	// stable across machines; on a single-core host the pooled run
	// measures pure orchestration overhead instead of speedup.
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := Table1(benchOpts(workers), lineWords, probeRounds)
				if len(rows) != len(lineWords) {
					b.Fatalf("got %d rows", len(rows))
				}
			}
		})
	}
}

// BenchmarkCompareCiphers runs the cross-cipher comparison (3 ciphers ×
// 4 trials = 12 key recoveries) serially and on GOMAXPROCS workers.
// Both sub-benchmarks recover the same keys, so encryptions/op must
// match; the recorded speedup lives in EXPERIMENTS.md ("Comparison
// drivers on the campaign pool").
func BenchmarkCompareCiphers(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{Trials: 4, Budget: 100_000, Seed: 2021, Workers: workers}
			var encs float64
			for i := 0; i < b.N; i++ {
				encs = 0
				for _, row := range CompareCiphers(opt) {
					if !row.AllCorrect {
						b.Fatalf("%s: recovery failed", row.Cipher)
					}
					encs += math.Round(row.Encryptions.Mean * float64(row.Encryptions.N))
				}
			}
			b.ReportMetric(encs, "encryptions/op")
		})
	}
}
