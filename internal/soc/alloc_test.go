//go:build !race

// The race detector makes sync.Pool drop a random share of the items
// put back, so the allocation gate builds only without it.

package soc

import (
	"runtime"
	"testing"
)

// TestRaceReusesSessionCache is the Table II race's allocation gate:
// a race takes an emptied, reused cache from the session pool instead
// of building a 1024-line cache (16 KB of lines, 8 KB of LRU stamps),
// so a job (new platform, one race) allocates well under 8 KiB on
// average on both platforms at every clock.
func TestRaceReusesSessionCache(t *testing.T) {
	const races, limit = 200, 8 << 10
	platforms := []struct {
		name string
		make func(mhz uint64) Platform
	}{
		{"single", func(mhz uint64) Platform { return NewSingleSoC(testKey, DefaultParams(mhz)) }},
		{"mpsoc", func(mhz uint64) Platform { return NewMPSoC(testKey, DefaultParams(mhz)) }},
	}
	for _, mhz := range []uint64{10, 25, 50} {
		for _, pl := range platforms {
			for i := 0; i < 10; i++ {
				pl.make(mhz).EarliestProbeRound()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < races; i++ {
				pl.make(mhz).EarliestProbeRound()
			}
			runtime.ReadMemStats(&after)
			if mean := (after.TotalAlloc - before.TotalAlloc) / races; mean >= limit {
				t.Errorf("%s %dMHz: a race allocates %d B on average, want < %d", pl.name, mhz, mean, limit)
			}
		}
	}
}
