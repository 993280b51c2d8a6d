package soc

import (
	"testing"

	"grinch/internal/obs/metrics"
)

// meteredPlatform is one platform and primitive at one clock, with the
// primitive label its probe series carry.
type meteredPlatform struct {
	name, primitive string
	p               interface {
		Platform
		SetMetrics(r *metrics.Registry)
	}
}

// meteredPlatforms builds every platform and single-SoC primitive at a
// clock.
func meteredPlatforms(mhz uint64) []meteredPlatform {
	return []meteredPlatform{
		{"single/flush_reload", "flush_reload", NewSingleSoC(testKey, DefaultParams(mhz))},
		{"single/prime_probe", "prime_probe", NewSingleSoC(testKey, ppParams(mhz))},
		{"mpsoc", "flush_reload", NewMPSoC(testKey, DefaultParams(mhz))},
	}
}

// probeCounts reads the grinch_probe_* series of one primitive.
func probeCounts(r *metrics.Registry, primitive string) (ops, observations, cycles uint64) {
	l := metrics.L("primitive", primitive)
	return r.Counter("grinch_probe_ops_total", "", l).Value(),
		r.Counter("grinch_probe_observations_total", "", l).Value(),
		r.Counter("grinch_probe_cycles_total", "", l).Value()
}

// TestProbeMetricsCountEveryWindow checks that the probe series meter
// the attacker on both platforms: one observation pass per recorded
// window, and the cycles the primitive spent in the cache.
func TestProbeMetricsCountEveryWindow(t *testing.T) {
	for _, mhz := range []uint64{10, 25, 50} {
		for _, mp := range meteredPlatforms(mhz) {
			r := metrics.New()
			mp.p.SetMetrics(r)
			sess := mp.p.RunSession(1)
			ops, observations, cycles := probeCounts(r, mp.primitive)
			if observations != uint64(len(sess.Windows)) || ops == 0 || cycles == 0 {
				t.Errorf("%s %dMHz: %d windows metered as ops=%d observations=%d cycles=%d, want %d observations and nonzero ops and cycles",
					mp.name, mhz, len(sess.Windows), ops, observations, cycles, len(sess.Windows))
			}
		}
	}
}

// TestEarliestProbeRoundObservesOnce is the Table II race's work gate:
// the race reads only the first window, so it makes exactly one
// observation pass on every platform, primitive and clock.
func TestEarliestProbeRoundObservesOnce(t *testing.T) {
	for _, mhz := range []uint64{10, 25, 50} {
		for _, mp := range meteredPlatforms(mhz) {
			r := metrics.New()
			mp.p.SetMetrics(r)
			mp.p.EarliestProbeRound()
			if _, observations, _ := probeCounts(r, mp.primitive); observations != 1 {
				t.Errorf("%s %dMHz: EarliestProbeRound made %d observation passes, want 1", mp.name, mhz, observations)
			}
		}
	}
}
