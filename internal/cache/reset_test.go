package cache

import (
	"reflect"
	"testing"
)

// resetPolicies names every policy a reset must empty, by its
// PolicyByName name.
var resetPolicies = []string{"lru", "fifo", "plru", "random"}

// fuzzConfig derives a small geometry from g, so the fuzzer reaches
// full sets, evictions and PLRU trees over ways that are not a power
// of two.
func fuzzConfig(g byte, policy Policy) Config {
	return Config{
		Sets:         1 << (g & 3),
		Ways:         1 + int(g>>2)%6,
		LineBytes:    1 << (g >> 5 & 3),
		HitLatency:   1,
		MissLatency:  30,
		FlushLatency: 2,
		Policy:       policy,
	}
}

// op runs one fuzzed operation on c: FlushLine at addr when kind's low
// bit is set (its outcome is only the latency it charged), Access
// otherwise.
func op(c *Cache, kind byte, addr uint64) Result {
	if kind&1 == 1 {
		return Result{Latency: c.FlushLine(addr)}
	}
	return c.Access(addr)
}

// FuzzCacheResetMatchesNew: a cache dirtied by one operation sequence
// and then Reset must equal a fresh New cache field by field, policy
// history included, and behave exactly like it on a second sequence —
// every Result, the final Stats and the resident lines — under every
// replacement policy.
func FuzzCacheResetMatchesNew(f *testing.F) {
	f.Add(byte(0x05), uint64(1), []byte{0, 1, 0, 2, 0, 3}, []byte{0, 1, 1, 2, 0, 3})
	f.Add(byte(0x0c), uint64(7), []byte{0, 0, 0, 16, 0, 32, 0, 48, 0, 64, 1, 16}, []byte{0, 0, 0, 16, 0, 0, 0, 80})
	f.Add(byte(0x27), uint64(42), []byte{0, 9, 0, 200, 1, 9, 0, 77, 0, 13}, []byte{})
	f.Add(byte(0x10), uint64(3), []byte{}, []byte{0, 4, 0, 4, 1, 4, 0, 4})
	// A 4-way single set overflowed in both sequences: only the random
	// policy's draws tell its reseeding apart.
	f.Add(byte(0x0c), uint64(9), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, []byte{0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 6, 0, 7})
	f.Fuzz(func(t *testing.T, g byte, seed uint64, dirty, ops []byte) {
		for _, name := range resetPolicies {
			reused := MustNew(fuzzConfig(g, PolicyByName(name, seed)))
			for i := 0; i+1 < len(dirty); i += 2 {
				op(reused, dirty[i], uint64(dirty[i+1]))
			}
			reused.Reset()
			fresh := MustNew(fuzzConfig(g, PolicyByName(name, seed)))
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("%s: after Reset %+v, fresh cache %+v", name, *reused, *fresh)
			}

			// Two bytes per operation: its kind, then its address.
			for i := 0; i+1 < len(ops); i += 2 {
				addr := uint64(ops[i+1])
				if got, want := op(reused, ops[i], addr), op(fresh, ops[i], addr); got != want {
					t.Fatalf("%s: operation %d after Reset: %+v, fresh cache: %+v", name, i/2, got, want)
				}
			}
			if got, want := reused.Stats(), fresh.Stats(); got != want {
				t.Fatalf("%s: Stats after Reset %+v, fresh cache %+v", name, got, want)
			}
			for addr := uint64(0); addr < 256; addr++ {
				if reused.Contains(addr) != fresh.Contains(addr) {
					t.Fatalf("%s: address %#x resident after Reset %v, fresh cache %v", name, addr, reused.Contains(addr), fresh.Contains(addr))
				}
			}
		}
	})
}

// TestResetAllocatesNothing: emptying a cache reuses its lines and its
// policy's history in place, whatever the policy.
func TestResetAllocatesNothing(t *testing.T) {
	for _, name := range resetPolicies {
		cfg := PaperConfig(1)
		cfg.Policy = PolicyByName(name, 1)
		c := MustNew(cfg)
		if allocs := testing.AllocsPerRun(10, func() {
			c.Access(0x40)
			c.Reset()
		}); allocs != 0 {
			t.Errorf("%s: Reset allocated %.0f times per call", name, allocs)
		}
	}
}
