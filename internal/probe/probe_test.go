package probe

import (
	"testing"
	"testing/quick"

	"grinch/internal/cache"
)

func TestLineSetBasics(t *testing.T) {
	var s LineSet
	s = s.Add(0).Add(3).Add(7)
	if !s.Contains(0) || !s.Contains(3) || !s.Contains(7) || s.Contains(1) {
		t.Fatalf("membership wrong: %v", s)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	lines := s.Lines()
	if len(lines) != 3 || lines[0] != 0 || lines[1] != 3 || lines[2] != 7 {
		t.Fatalf("Lines = %v", lines)
	}
	if s.String() != "{0,3,7}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestLineSetSole(t *testing.T) {
	if LineSet(0).Sole() != -1 {
		t.Fatal("empty set has a sole line")
	}
	if LineSet(0b1000).Sole() != 3 {
		t.Fatal("sole of {3} wrong")
	}
	if LineSet(0b1010).Sole() != -1 {
		t.Fatal("two-line set has a sole line")
	}
}

func TestLineSetOpsQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := LineSet(a), LineSet(b)
		return x.Intersect(y) == y.Intersect(x) &&
			x.Union(y) == y.Union(x) &&
			x.Intersect(x.Union(y)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFullSet(t *testing.T) {
	if FullSet(4) != LineSet(0b1111) {
		t.Fatalf("FullSet(4) = %v", FullSet(4))
	}
	if FullSet(16).Count() != 16 {
		t.Fatal("FullSet(16) wrong")
	}
}

func TestTableLayout(t *testing.T) {
	tab := TableLayout{Base: 0x100, EntryBytes: 1, Entries: 16}
	if tab.EntryAddr(5) != 0x105 {
		t.Fatalf("EntryAddr(5) = %#x", tab.EntryAddr(5))
	}
	for _, c := range []struct{ lineBytes, lines int }{{1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}, {32, 1}} {
		if got := tab.LinesIn(c.lineBytes); got != c.lines {
			t.Errorf("LinesIn(%d) = %d, want %d", c.lineBytes, got, c.lines)
		}
	}
}

func paperCache(t *testing.T, lineBytes int) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.PaperConfig(lineBytes))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlushReloadObservesVictimAccesses(t *testing.T) {
	c := paperCache(t, 1)
	tab := TableLayout{Base: 0x400, EntryBytes: 1, Entries: 16}
	fr := &FlushReload{Cache: c, Table: tab}

	fr.Flush()
	// Victim touches entries 3, 5, 11.
	for _, e := range []int{3, 5, 11} {
		c.Access(tab.EntryAddr(e))
	}
	set, _ := fr.Reload()
	want := LineSet(0).Add(3).Add(5).Add(11)
	if set != want {
		t.Fatalf("observed %v, want %v", set, want)
	}
}

func TestFlushReloadLineGranularity(t *testing.T) {
	c := paperCache(t, 4) // 4 entries per line
	tab := TableLayout{Base: 0x400, EntryBytes: 1, Entries: 16}
	fr := &FlushReload{Cache: c, Table: tab}
	fr.Flush()
	c.Access(tab.EntryAddr(6)) // line 1
	set, _ := fr.Reload()
	if set != LineSet(0).Add(1) {
		t.Fatalf("observed %v, want {1}", set)
	}
}

func TestFlushReloadSecondReloadSeesAll(t *testing.T) {
	// The reload itself warms the lines, so without a fresh flush the
	// next reload reports everything resident (the reason the attack
	// must flush per observation window).
	c := paperCache(t, 1)
	tab := TableLayout{Base: 0, EntryBytes: 1, Entries: 16}
	fr := &FlushReload{Cache: c, Table: tab}
	fr.Flush()
	c.Access(tab.EntryAddr(2))
	fr.Reload()
	set, _ := fr.Reload()
	if set != FullSet(16) {
		t.Fatalf("second reload = %v, want full set", set)
	}
}

func TestFlushReloadEmptyAfterFlush(t *testing.T) {
	c := paperCache(t, 1)
	tab := TableLayout{Base: 0x80, EntryBytes: 1, Entries: 16}
	fr := &FlushReload{Cache: c, Table: tab}
	for i := 0; i < 16; i++ {
		c.Access(tab.EntryAddr(i))
	}
	fr.Flush()
	set, _ := fr.Reload()
	if set != 0 {
		t.Fatalf("after flush, reload reports %v", set)
	}
}

func TestPrimeProbeObservesVictimAccesses(t *testing.T) {
	// Small cache so priming is feasible: 4 sets, 2 ways, 1-byte lines.
	c, err := cache.New(cache.Config{Sets: 4, Ways: 2, LineBytes: 1, HitLatency: 1, MissLatency: 20, FlushLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab := TableLayout{Base: 0, EntryBytes: 1, Entries: 4}
	pp := &PrimeProbe{Cache: c, Table: tab, EvictionBase: 0x100}

	pp.Prime()
	// Victim touches entry 2 (set 2), evicting one attacker line there.
	c.Access(tab.EntryAddr(2))
	set, _ := pp.Probe()
	if !set.Contains(2) {
		t.Fatalf("probe missed victim access: %v", set)
	}
	if set.Count() != 1 {
		t.Fatalf("probe reported extra sets: %v", set)
	}
}

func TestPrimeProbeQuietVictim(t *testing.T) {
	c, err := cache.New(cache.Config{Sets: 4, Ways: 2, LineBytes: 1, HitLatency: 1, MissLatency: 20, FlushLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab := TableLayout{Base: 0, EntryBytes: 1, Entries: 4}
	pp := &PrimeProbe{Cache: c, Table: tab, EvictionBase: 0x100}
	pp.Prime()
	set, _ := pp.Probe()
	if set != 0 {
		t.Fatalf("idle victim but probe reports %v", set)
	}
}
