package campaign

import (
	"context"
	"testing"

	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
)

// BenchmarkRunNoopExec is the executor rung of the layer ladder: Run
// over a 1000-job grid whose executor returns at once, so what is left
// is expansion, dispatch, the collector's reorder buffer and the
// counters — without a registry (the nil path table1/table2 take) and
// with a live one (the cmd/campaign path).
func BenchmarkRunNoopExec(b *testing.B) {
	spec := Spec{Name: "noop", Kind: "noop", Seed: 1, Trials: 125,
		LineWords: []int{1, 2}, ProbeRounds: []int{1, 2, 3, 4}}
	noop := func(Job, obs.Tracer) (Measurement, error) { return Measurement{Encryptions: 1}, nil }
	for _, bc := range []struct {
		name string
		reg  func() *metrics.Registry
	}{
		{"registry=nil", func() *metrics.Registry { return nil }},
		{"registry=live", metrics.New},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), spec, noop, Options{Workers: 2, Registry: bc.reg()})
				if err != nil || rep.Executed != spec.NumJobs() {
					b.Fatalf("run: executed %d, %v", rep.Executed, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.NumJobs()), "ns/job")
		})
	}
}
