package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"grinch/internal/stats"
)

// TestSerialDriversPinned pins the exact rows CompareCiphers,
// CompareProbeMethods and PlatformEffort return at two budgets and
// several worker counts. The ample budget lets every recovery finish;
// the tight one makes GIFT-128 fail half its trials, every Evict+Time
// trial exhaust the budget and every single-SoC attack drop out, so
// the summaries over successful trials and the drop-out paths are
// pinned too. The rows must not depend on Options.Workers.
func TestSerialDriversPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		budget   uint64
		ciphers  []CompareRow
		probes   []ProbeMethodRow
		platform []PlatformEffortRow
	}{
		{
			name:   "ample",
			budget: 10_000,
			ciphers: []CompareRow{
				{Cipher: "GIFT-64", KeyBits: 128, RoundPasses: 4, Encryptions: stats.Summary{N: 4, Min: 457, Max: 487, Mean: 475.75, Median: 479.5, StdDev: 13.744695946679455}, PerKeyBit: 3.74609375, AllCorrect: true},
				{Cipher: "GIFT-128", KeyBits: 128, RoundPasses: 2, Encryptions: stats.Summary{N: 4, Min: 1375, Max: 1707, Mean: 1529, Median: 1517, StdDev: 152.16876595850192}, PerKeyBit: 11.8515625, AllCorrect: true},
				{Cipher: "PRESENT-80", KeyBits: 80, RoundPasses: 2, Encryptions: stats.Summary{N: 4, Min: 234, Max: 258, Mean: 242.25, Median: 238.5, StdDev: 11.086778913041726}, PerKeyBit: 2.98125, AllCorrect: true},
			},
			probes: []ProbeMethodRow{
				{Method: "Flush+Reload", Encryptions: stats.Summary{N: 4, Min: 126, Max: 140, Mean: 132, Median: 131, StdDev: 6.0553007081949835}},
				{Method: "Evict+Time", Encryptions: stats.Summary{N: 4, Min: 1735, Max: 2029, Mean: 1895, Median: 1908, StdDev: 151.6377261765686}},
			},
			platform: []PlatformEffortRow{
				{Platform: "Single-processing SoC", MHz: 10, Encryptions: 4741, WindowRounds: 2},
				{Platform: "Multi-processing SoC", MHz: 10, Encryptions: 977, WindowRounds: 1},
				{Platform: "Single-processing SoC", MHz: 25, Encryptions: 3248, WindowRounds: 4},
				{Platform: "Multi-processing SoC", MHz: 25, Encryptions: 1090, WindowRounds: 1},
				{Platform: "Single-processing SoC", MHz: 50, Encryptions: 10_000, DroppedOut: true, WindowRounds: 8},
				{Platform: "Multi-processing SoC", MHz: 50, Encryptions: 1079, WindowRounds: 1},
			},
		},
		{
			name:   "tight",
			budget: 1_500,
			ciphers: []CompareRow{
				{Cipher: "GIFT-64", KeyBits: 128, RoundPasses: 4, Encryptions: stats.Summary{N: 4, Min: 457, Max: 487, Mean: 475.75, Median: 479.5, StdDev: 13.744695946679455}, PerKeyBit: 3.74609375, AllCorrect: true},
				{Cipher: "GIFT-128", KeyBits: 128, RoundPasses: 2, Encryptions: stats.Summary{N: 2, Min: 1375, Max: 1434, Mean: 1404.5, Median: 1404.5, StdDev: 41.71930009000631}, PerKeyBit: 10.97265625, AllCorrect: false},
				{Cipher: "PRESENT-80", KeyBits: 80, RoundPasses: 2, Encryptions: stats.Summary{N: 4, Min: 234, Max: 258, Mean: 242.25, Median: 238.5, StdDev: 11.086778913041726}, PerKeyBit: 2.98125, AllCorrect: true},
			},
			probes: []ProbeMethodRow{
				{Method: "Flush+Reload", Encryptions: stats.Summary{N: 4, Min: 126, Max: 140, Mean: 132, Median: 131, StdDev: 6.0553007081949835}},
				{Method: "Evict+Time", Encryptions: stats.Summary{N: 4, Min: 1500, Max: 1500, Mean: 1500, Median: 1500}},
			},
			platform: []PlatformEffortRow{
				{Platform: "Single-processing SoC", MHz: 10, Encryptions: 1500, DroppedOut: true, WindowRounds: 2},
				{Platform: "Multi-processing SoC", MHz: 10, Encryptions: 977, WindowRounds: 1},
				{Platform: "Single-processing SoC", MHz: 25, Encryptions: 1500, DroppedOut: true, WindowRounds: 4},
				{Platform: "Multi-processing SoC", MHz: 25, Encryptions: 1090, WindowRounds: 1},
				{Platform: "Single-processing SoC", MHz: 50, Encryptions: 1500, DroppedOut: true, WindowRounds: 8},
				{Platform: "Multi-processing SoC", MHz: 50, Encryptions: 1079, WindowRounds: 1},
			},
		},
	} {
		for _, workers := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opt := Options{Seed: 3, Trials: 4, Budget: tc.budget, Workers: workers}
				if got := CompareCiphers(opt); !reflect.DeepEqual(got, tc.ciphers) {
					t.Errorf("CompareCiphers:\n got %#v\nwant %#v", got, tc.ciphers)
				}
				if got := CompareProbeMethods(opt); !reflect.DeepEqual(got, tc.probes) {
					t.Errorf("CompareProbeMethods:\n got %#v\nwant %#v", got, tc.probes)
				}
				if got := PlatformEffort(opt, nil); !reflect.DeepEqual(got, tc.platform) {
					t.Errorf("PlatformEffort:\n got %#v\nwant %#v", got, tc.platform)
				}
			})
		}
	}
}
