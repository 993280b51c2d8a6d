package oracle

import (
	"encoding/binary"
	"fmt"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/present"
	"grinch/internal/probe"
)

// hierarchy builds a two-level hierarchy whose 1-byte lines match
// LineWords 1, with a victim L1 large enough to hold the table.
func hierarchy(t testing.TB) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(
		cache.Config{Sets: 16, Ways: 2, LineBytes: 1, HitLatency: 1, MissLatency: 0, FlushLatency: 1},
		cache.PaperConfig(1), true, 100)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHierarchyChannelRejectsNoiseAndEvictTime pins that the hierarchy
// channel, which models neither injected noise nor Evict+Time, refuses
// such configurations instead of silently running clean Flush+Reload.
func TestHierarchyChannelRejectsNoiseAndEvictTime(t *testing.T) {
	for _, cfg := range []Config{
		{ProbeRound: 1, Flush: true, LineWords: 1, FalsePresence: 0.9},
		{ProbeRound: 1, Flush: true, LineWords: 1, FalseAbsence: 0.9},
		{ProbeRound: 1, Flush: true, LineWords: 1, Probe: ProbeEvictTime},
	} {
		if _, err := NewHierarchyChannel(testKey, cfg, hierarchy(t), 0x1000); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewHierarchyChannel(testKey, Config{ProbeRound: 1, Flush: true, LineWords: 1}, hierarchy(t), 0x1000); err != nil {
		t.Fatalf("clean config rejected: %v", err)
	}
}

// TestCollectAllocatesNothing pins the reused trace buffer: after the
// first encryption, no oracle allocates per observation.
func TestCollectAllocatesNothing(t *testing.T) {
	cfg := Config{ProbeRound: 2, Flush: true, LineWords: 1}
	o128, err := New128(testKey, cfg)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewPresent(present.NewCipher80([10]byte{1, 2, 3}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	oh, err := NewHierarchyChannel(testKey, cfg, hierarchy(t), 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	o64 := MustNew(testKey, cfg)
	var sink probe.LineSet
	for _, c := range []struct {
		name    string
		collect func()
	}{
		{"Oracle", func() { sink ^= o64.Collect(0x1234, 2) }},
		{"Oracle128", func() { sink ^= o128.Collect(bitutil.Word128{Lo: 1, Hi: 2}, 2) }},
		{"OracleP", func() { sink ^= op.Collect(0x1234, 2) }},
		{"HierOracle", func() { sink ^= oh.Collect(0x1234, 2) }},
	} {
		if allocs := testing.AllocsPerRun(50, c.collect); allocs != 0 {
			t.Errorf("%s: %.1f allocs per Collect, want 0", c.name, allocs)
		}
	}
	collectSink = sink
}

// FuzzCollectMatchesTrace checks every oracle's noise-free Collect
// against a fold of the victim's full SBoxInputs reference trace over
// the window the package doc states, and for GIFT-64 that a primed
// batch of one commits the same observation. The seed corpus in
// testdata covers the window clamp at the last round and PRESENT's
// lead-0 window.
func FuzzCollectMatchesTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, cipher uint8, keyLo, keyHi, ptLo, ptHi uint64, lwIdx, probeRound uint8, flush bool, target uint8) {
		key := bitutil.Word128{Lo: keyLo, Hi: keyHi}
		lw := 1 << (lwIdx % 5)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		var (
			full    [][]uint64 // per round, the nibble words of its state
			rounds  int
			lead    = 1
			collect func(cfg Config, targetRound int) probe.LineSet
		)
		switch cipher % 3 {
		case 0:
			rounds = gift.Rounds64
			for _, s := range gift.NewCipher64FromWord(key).SBoxInputs(ptLo) {
				full = append(full, []uint64{s})
			}
			collect = func(cfg Config, targetRound int) probe.LineSet {
				o, primed := MustNew(key, cfg), MustNew(key, cfg)
				set := o.Collect(ptLo, targetRound)
				raw := make([]probe.LineSet, 1)
				if !primed.PrimeBatch([]uint64{ptLo}, targetRound, raw) {
					t.Fatal("PrimeBatch refused a real victim")
				}
				if ps, mask := primed.CollectPrimed(raw[0], targetRound); ps != set || mask != probe.FullSet(o.Lines()) {
					t.Fatalf("PrimeBatch+CollectPrimed = (%v,%v), Collect = %v", ps, mask, set)
				}
				return set
			}
		case 1:
			rounds = gift.Rounds128
			pt := bitutil.Word128{Lo: ptLo, Hi: ptHi}
			for _, s := range gift.NewCipher128FromWord(key).SBoxInputs(pt) {
				full = append(full, []uint64{s.Lo, s.Hi})
			}
			collect = func(cfg Config, targetRound int) probe.LineSet {
				o, err := New128(key, cfg)
				must(err)
				return o.Collect(pt, targetRound)
			}
		default:
			rounds, lead = present.Rounds, 0
			var k [10]byte
			binary.LittleEndian.PutUint64(k[:8], keyLo)
			binary.LittleEndian.PutUint16(k[8:], uint16(keyHi))
			c := present.NewCipher80(k)
			for _, s := range c.SBoxInputs(ptLo) {
				full = append(full, []uint64{s})
			}
			collect = func(cfg Config, targetRound int) probe.LineSet {
				o, err := NewPresent(c, cfg)
				must(err)
				return o.Collect(ptLo, targetRound)
			}
		}
		cfg := Config{ProbeRound: 1 + int(probeRound)%rounds, Flush: flush, LineWords: lw}
		targetRound := 1 + int(target)%rounds

		signal := targetRound + lead
		first, last := 1, min(signal+cfg.ProbeRound-1, rounds)
		if flush {
			first = signal
		}
		var want probe.LineSet
		for r := first; r <= last; r++ {
			for _, w := range full[r-1] {
				for seg := uint(0); seg < 16; seg++ {
					want = want.Add(int(bitutil.Nibble(w, seg)) / lw)
				}
			}
		}
		if got := collect(cfg, targetRound); got != want {
			t.Fatalf("cipher %d lw=%d pr=%d flush=%v target=%d: Collect %v, trace %v",
				cipher%3, lw, cfg.ProbeRound, flush, targetRound, got, want)
		}
	})
}

// BenchmarkPrimeBatch is the oracle-demux layer of the batched pipeline:
// one 64-block PrimeBatch (bitsliced victim trace, line demux and
// transpose) for a round-1 target at probe round 1 with flush, per line
// width. It reports ns per block and asserts 0 allocs per batch.
func BenchmarkPrimeBatch(b *testing.B) {
	pts := batchPts(1, 64)
	raw := make([]probe.LineSet, len(pts))
	for _, lw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lw=%d", lw), func(b *testing.B) {
			o := MustNew(testKey, Config{ProbeRound: 1, Flush: true, LineWords: lw})
			if allocs := testing.AllocsPerRun(100, func() { o.PrimeBatch(pts, 1, raw) }); allocs != 0 {
				b.Fatalf("%.1f allocs per PrimeBatch, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.PrimeBatch(pts, 1, raw)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/block")
		})
	}
}
