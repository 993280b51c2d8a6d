package oracle

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

func TestOracle128CollectMatchesTrace(t *testing.T) {
	key := bitutil.Word128{Lo: 0x1111, Hi: 0x2222}
	c := gift.NewCipher128FromWord(key)
	o, err := New128(key, Config{ProbeRound: 2, Flush: true, LineWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		pt := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		got := o.Collect(pt, 1)
		states := c.SBoxInputs(pt)
		var want probe.LineSet
		for round := 2; round <= 3; round++ {
			for seg := uint(0); seg < 32; seg++ {
				want = want.Add(int(states[round-1].Nibble(seg)))
			}
		}
		if got != want {
			t.Fatalf("trial %d: got %v want %v", i, got, want)
		}
	}
	if o.Encryptions() != 20 {
		t.Fatalf("Encryptions = %d", o.Encryptions())
	}
	if o.Cipher() == nil {
		t.Fatal("Cipher() nil for New128 oracle")
	}
}

func TestOracle128Validation(t *testing.T) {
	if _, err := New128(bitutil.Word128{}, Config{ProbeRound: 0, LineWords: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestOracle128LineWindowClamp(t *testing.T) {
	o, _ := New128(bitutil.Word128{Lo: 1}, Config{ProbeRound: 100, Flush: false, LineWords: 1})
	set := o.Collect(bitutil.Word128{Lo: 2}, 1)
	if set.Count() == 0 || set.Count() > 16 {
		t.Fatalf("clamped window set = %v", set)
	}
}

func TestOraclePresentWindowSemantics(t *testing.T) {
	// PRESENT's signal round for key t is round t itself: at ProbeRound
	// 1 with flush, Collect(pt, t) must equal the round-t index set.
	var key [10]byte
	key[3] = 0xab
	c := present.NewCipher80(key)
	o, err := NewPresent(c, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		pt := r.Uint64()
		for _, target := range []int{1, 2, 5} {
			got := o.Collect(pt, target)
			states := c.SBoxInputs(pt)
			var want probe.LineSet
			for seg := uint(0); seg < 16; seg++ {
				want = want.Add(int(states[target-1] >> (4 * seg) & 0xf))
			}
			if got != want {
				t.Fatalf("target %d: got %v want %v", target, got, want)
			}
		}
	}
}

func TestOraclePresentNoFlushSuperset(t *testing.T) {
	var key [10]byte
	c := present.NewCipher80(key)
	of, _ := NewPresent(c, Config{ProbeRound: 2, Flush: true, LineWords: 1})
	onf, _ := NewPresent(c, Config{ProbeRound: 2, Flush: false, LineWords: 1})
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		pt := r.Uint64()
		f, nf := of.Collect(pt, 3), onf.Collect(pt, 3)
		if f.Union(nf) != nf {
			t.Fatal("flush observation not a subset of no-flush")
		}
	}
}

func TestOraclePresentValidation(t *testing.T) {
	var key [10]byte
	c := present.NewCipher80(key)
	if _, err := NewPresent(c, Config{ProbeRound: 1, LineWords: 3}); err == nil {
		t.Fatal("invalid line width accepted")
	}
}

func TestEvictTimeMaskCyclesAllLines(t *testing.T) {
	key := bitutil.Word128{Lo: 5, Hi: 6}
	o, err := New(key, Config{ProbeRound: 1, Flush: true, LineWords: 1, Probe: ProbeEvictTime})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i := 0; i < 32; i++ {
		set, mask := o.CollectMasked(uint64(i), 1)
		if mask.Count() != 1 {
			t.Fatalf("Evict+Time mask %v examines %d lines", mask, mask.Count())
		}
		if set.Union(mask) != mask {
			t.Fatalf("set %v leaks outside mask %v", set, mask)
		}
		seen[mask.Sole()]++
	}
	for l := 0; l < 16; l++ {
		if seen[l] != 2 {
			t.Fatalf("line %d probed %d times in 32 encryptions", l, seen[l])
		}
	}
}

func TestFlushReloadMaskIsFull(t *testing.T) {
	key := bitutil.Word128{Lo: 5, Hi: 6}
	o, _ := New(key, Config{ProbeRound: 1, Flush: true, LineWords: 4})
	set, mask := o.CollectMasked(42, 1)
	if mask != probe.FullSet(4) {
		t.Fatalf("Flush+Reload mask = %v", mask)
	}
	if set.Union(mask) != mask {
		t.Fatal("set exceeds table lines")
	}
}

func TestEvictTimeMembershipAgreesWithFullView(t *testing.T) {
	key := bitutil.Word128{Lo: 0xdead, Hi: 0xbeef}
	et, _ := New(key, Config{ProbeRound: 1, Flush: true, LineWords: 1, Probe: ProbeEvictTime})
	fr, _ := New(key, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	r := rng.New(9)
	for i := 0; i < 64; i++ {
		pt := r.Uint64()
		full := fr.Collect(pt, 1)
		set, mask := et.CollectMasked(pt, 1)
		if full.Intersect(mask) != set {
			t.Fatalf("Evict+Time view %v inconsistent with full view %v (mask %v)", set, full, mask)
		}
	}
}

// TestFlushReloadOnlyOraclesRejectEvictTime pins that the GIFT-128 and
// PRESENT oracles, which have no masked collect, refuse an Evict+Time
// configuration instead of silently probing every line.
func TestFlushReloadOnlyOraclesRejectEvictTime(t *testing.T) {
	cfg := Config{ProbeRound: 1, Flush: true, LineWords: 1, Probe: ProbeEvictTime}
	key := bitutil.Word128{Lo: 3, Hi: 4}
	if _, err := New128(key, cfg); err == nil {
		t.Error("New128 accepted ProbeEvictTime")
	}
	if _, err := New128FromTracer(gift.NewCipher128FromWord(key), cfg); err == nil {
		t.Error("New128FromTracer accepted ProbeEvictTime")
	}
	if _, err := NewPresent(present.NewCipher80([10]byte{}), cfg); err == nil {
		t.Error("NewPresent accepted ProbeEvictTime")
	}
}

// TestCollectMatchesFullTraceAtEveryLineWidth checks each oracle's
// demux against the full victim trace with the index divided by the
// line width, at every width Validate admits and over probe windows of
// one to three rounds.
func TestCollectMatchesFullTraceAtEveryLineWidth(t *testing.T) {
	key := bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
	c64 := gift.NewCipher64FromWord(key)
	c128 := gift.NewCipher128FromWord(key)
	cp := present.NewCipher80([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// lines folds the nibbles of states[first-1 .. last-1] into lines.
	lines := func(states []uint64, first, last, lw int) probe.LineSet {
		var set probe.LineSet
		for r := first; r <= last; r++ {
			for seg := uint(0); seg < 16; seg++ {
				set = set.Add(int(bitutil.Nibble(states[r-1], seg)) / lw)
			}
		}
		return set
	}
	r := rng.New(9)
	for _, lw := range []int{1, 2, 4, 8, 16} {
		for pr := 1; pr <= 3; pr++ {
			cfg := Config{ProbeRound: pr, Flush: true, LineWords: lw}
			o64 := MustNew(key, cfg)
			o128, err := New128(key, cfg)
			if err != nil {
				t.Fatal(err)
			}
			op, err := NewPresent(cp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				pt := r.Uint64()
				if got, want := o64.Collect(pt, 2), lines(c64.SBoxInputs(pt), 3, 2+pr, lw); got != want {
					t.Fatalf("GIFT-64 lw=%d pr=%d: got %v want %v", lw, pr, got, want)
				}
				// PRESENT's window for round key 2 starts at round 2.
				if got, want := op.Collect(pt, 2), lines(cp.SBoxInputs(pt), 2, 1+pr, lw); got != want {
					t.Fatalf("PRESENT lw=%d pr=%d: got %v want %v", lw, pr, got, want)
				}
				pt128 := bitutil.Word128{Lo: pt, Hi: r.Uint64()}
				var lo, hi []uint64
				for _, s := range c128.SBoxInputs(pt128) {
					lo, hi = append(lo, s.Lo), append(hi, s.Hi)
				}
				want := lines(lo, 3, 2+pr, lw).Union(lines(hi, 3, 2+pr, lw))
				if got := o128.Collect(pt128, 2); got != want {
					t.Fatalf("GIFT-128 lw=%d pr=%d: got %v want %v", lw, pr, got, want)
				}
			}
		}
	}
}
