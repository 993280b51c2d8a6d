package oracle

import (
	"strings"
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/present"
	"grinch/internal/probe"
	"grinch/internal/rng"
)

var testKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

func mustOracle(t *testing.T, cfg Config) *Oracle {
	t.Helper()
	o, err := New(testKey, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ProbeRound: 0, LineWords: 1},
		{ProbeRound: 1, LineWords: 3},
		{ProbeRound: 1, LineWords: 0},
		{ProbeRound: 1, LineWords: 1, FalsePresence: 1.5},
		{ProbeRound: 1, LineWords: 1, FalseAbsence: -0.1},
	}
	for _, cfg := range bad {
		if _, err := New(testKey, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestNoiseValidationNamesField pins the error contract: an
// out-of-range noise probability names the offending field and the
// rejected value, and the [0,1) range is enforced identically for both
// fields and both cipher variants (Oracle128 shares Config.Validate).
func TestNoiseValidationNamesField(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{ProbeRound: 1, LineWords: 1, FalsePresence: 1}, "FalsePresence"},
		{Config{ProbeRound: 1, LineWords: 1, FalsePresence: -0.25}, "FalsePresence"},
		{Config{ProbeRound: 1, LineWords: 1, FalseAbsence: 1.5}, "FalseAbsence"},
		{Config{ProbeRound: 1, LineWords: 1, FalseAbsence: -0.1}, "FalseAbsence"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("config %+v accepted", c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("error %q does not name field %s", err, c.field)
		}
		if _, err128 := New128(testKey, c.cfg); err128 == nil || err128.Error() != err.Error() {
			t.Errorf("GIFT-128 oracle validation diverged: %v vs %v", err128, err)
		}
	}
	// The boundary just inside the range stays accepted.
	ok := Config{ProbeRound: 1, LineWords: 1, FalsePresence: 0.999, FalseAbsence: 0.999}
	if err := ok.Validate(); err != nil {
		t.Errorf("config %+v rejected: %v", ok, err)
	}
}

func TestLinesForWidths(t *testing.T) {
	for _, c := range []struct{ words, lines int }{{1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}} {
		o := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: c.words})
		if o.Lines() != c.lines {
			t.Errorf("LineWords=%d: Lines=%d, want %d", c.words, o.Lines(), c.lines)
		}
	}
}

// TestCollectMatchesReferenceTrace recomputes the expected observation
// from the cipher's round states and compares.
func TestCollectMatchesReferenceTrace(t *testing.T) {
	cases := []struct {
		probeRound  int
		flush       bool
		targetRound int
	}{
		{1, true, 1}, {1, false, 1}, {3, true, 1}, {3, false, 2}, {2, true, 4}, {28, false, 1},
	}
	c := gift.NewCipher64FromWord(testKey)
	r := rng.New(4)
	for _, cse := range cases {
		o := mustOracle(t, Config{ProbeRound: cse.probeRound, Flush: cse.flush, LineWords: 1})
		for i := 0; i < 10; i++ {
			pt := r.Uint64()
			got := o.Collect(pt, cse.targetRound)

			states := c.SBoxInputs(pt)
			first := 1
			if cse.flush {
				first = cse.targetRound + 1
			}
			last := cse.targetRound + cse.probeRound
			if last > gift.Rounds64 {
				last = gift.Rounds64
			}
			var want probe.LineSet
			for round := first; round <= last; round++ {
				for seg := uint(0); seg < 16; seg++ {
					want = want.Add(int(bitutil.Nibble(states[round-1], seg)))
				}
			}
			if got != want {
				t.Fatalf("probeRound=%d flush=%v target=%d: got %v want %v",
					cse.probeRound, cse.flush, cse.targetRound, got, want)
			}
		}
	}
}

func TestFlushObservesOnlyTargetWindow(t *testing.T) {
	// At ProbeRound 1 with flush the observed set is exactly the 16
	// round-(t+1) accesses; with at most 16 distinct nibbles the count
	// is ≤ 16 and usually ≥ 8.
	o := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	set := o.Collect(0x1234567890abcdef, 1)
	if set.Count() > 16 || set.Count() < 2 {
		t.Fatalf("window observation has %d lines", set.Count())
	}
}

func TestNoFlushSupersetOfFlush(t *testing.T) {
	r := rng.New(8)
	of := mustOracle(t, Config{ProbeRound: 2, Flush: true, LineWords: 1})
	onf := mustOracle(t, Config{ProbeRound: 2, Flush: false, LineWords: 1})
	for i := 0; i < 50; i++ {
		pt := r.Uint64()
		f := of.Collect(pt, 1)
		nf := onf.Collect(pt, 1)
		if f.Union(nf) != nf {
			t.Fatalf("flush observation %v not a subset of no-flush %v", f, nf)
		}
	}
}

func TestLineGranularityCoarsens(t *testing.T) {
	r := rng.New(9)
	fine := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	coarse := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 4})
	for i := 0; i < 50; i++ {
		pt := r.Uint64()
		f := fine.Collect(pt, 1)
		c4 := coarse.Collect(pt, 1)
		var want probe.LineSet
		for _, idx := range f.Lines() {
			want = want.Add(idx / 4)
		}
		if c4 != want {
			t.Fatalf("coarse set %v, want %v (from %v)", c4, want, f)
		}
	}
}

func TestEncryptionCounter(t *testing.T) {
	o := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	for i := 0; i < 7; i++ {
		o.Collect(uint64(i), 1)
	}
	if o.Encryptions() != 7 {
		t.Fatalf("Encryptions = %d", o.Encryptions())
	}
}

func TestFalsePresenceAddsLines(t *testing.T) {
	clean := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	noisy := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1, FalsePresence: 0.5, Seed: 3})
	r := rng.New(10)
	extra := 0
	for i := 0; i < 200; i++ {
		pt := r.Uint64()
		c := clean.Collect(pt, 1)
		n := noisy.Collect(pt, 1)
		if c.Union(n) != n {
			t.Fatalf("false presence removed lines")
		}
		extra += n.Count() - c.Count()
	}
	if extra == 0 {
		t.Fatal("FalsePresence=0.5 added no lines in 200 trials")
	}
}

func TestFalseAbsenceRemovesLines(t *testing.T) {
	clean := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1})
	noisy := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1, FalseAbsence: 0.5, Seed: 5})
	r := rng.New(11)
	removed := 0
	for i := 0; i < 200; i++ {
		pt := r.Uint64()
		c := clean.Collect(pt, 1)
		n := noisy.Collect(pt, 1)
		if n.Union(c) != c {
			t.Fatalf("false absence added lines")
		}
		removed += c.Count() - n.Count()
	}
	if removed == 0 {
		t.Fatal("FalseAbsence=0.5 removed no lines in 200 trials")
	}
}

func TestNoiseDeterministicBySeed(t *testing.T) {
	run := func() []probe.LineSet {
		o := mustOracle(t, Config{ProbeRound: 1, Flush: true, LineWords: 1, FalsePresence: 0.3, FalseAbsence: 0.3, Seed: 42})
		var out []probe.LineSet
		for i := 0; i < 50; i++ {
			out = append(out, o.Collect(uint64(i)*0x9e3779b97f4a7c15, 1))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise not deterministic at trial %d", i)
		}
	}
}

// BenchmarkCollect measures one observation per cipher oracle — victim
// trace plus line demux — on 1-word lines for a round-1 target at
// probe round 1 with flush, the channel the cross-cipher comparison
// uses, and requires the observation to allocate nothing.
func BenchmarkCollect(b *testing.B) {
	key := testKey
	cfg := Config{ProbeRound: 1, Flush: true, LineWords: 1}
	o128, err := New128(key, cfg)
	if err != nil {
		b.Fatal(err)
	}
	op, err := NewPresent(present.NewCipher80([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), cfg)
	if err != nil {
		b.Fatal(err)
	}
	o64 := MustNew(key, cfg)
	var sink probe.LineSet
	for _, c := range []struct {
		name    string
		collect func(pt uint64) probe.LineSet
	}{
		{"GIFT-64", func(pt uint64) probe.LineSet { return o64.Collect(pt, 1) }},
		{"GIFT-128", func(pt uint64) probe.LineSet { return o128.Collect(bitutil.Word128{Lo: pt, Hi: ^pt}, 1) }},
		{"PRESENT-80", func(pt uint64) probe.LineSet { return op.Collect(pt, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if allocs := testing.AllocsPerRun(100, func() { sink ^= c.collect(0x1234) }); allocs != 0 {
				b.Fatalf("%.1f allocs per Collect, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink ^= c.collect(uint64(i) * 0x9e3779b97f4a7c15)
			}
		})
	}
	collectSink = sink
}

// collectSink keeps benchmark results live.
var collectSink probe.LineSet

// TestFoldMatchesNibbleLoop pins the line folds on their own against
// the plain per-nibble loop at every line width: shift 0 (1-word lines)
// to 4 (16-word lines, where every index maps to line 0). Inputs are
// every single-nibble state, 0, all ones and seeded random states;
// fold128 takes neighbouring inputs as its two halves.
func TestFoldMatchesNibbleLoop(t *testing.T) {
	ref := func(s uint64, shift uint) probe.LineSet {
		var set probe.LineSet
		for i := uint(0); i < 16; i++ {
			idx := s >> (4 * i) & 0xf
			set = set.Add(int(idx >> shift))
		}
		return set
	}
	states := []uint64{0, ^uint64(0)}
	for i := uint(0); i < 16; i++ {
		for v := uint64(1); v < 16; v++ {
			states = append(states, v<<(4*i))
		}
	}
	r := rng.New(7)
	for i := 0; i < 256; i++ {
		states = append(states, r.Uint64())
	}
	for shift := uint(0); shift <= 4; shift++ {
		for i, s := range states {
			if got, want := fold64(s, shift), ref(s, shift); got != want {
				t.Fatalf("fold64(%#x, %d) = %v, want %v", s, shift, got, want)
			}
			hi := states[(i+1)%len(states)]
			w := bitutil.Word128{Lo: s, Hi: hi}
			if got, want := fold128(w, shift), ref(s, shift)|ref(hi, shift); got != want {
				t.Fatalf("fold128(%#x:%#x, %d) = %v, want %v", hi, s, shift, got, want)
			}
		}
	}
}
