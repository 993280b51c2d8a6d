package soc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grinch/internal/noc"
	"grinch/internal/sim"
)

// The sweep golden pins the races away from the paper's parameters,
// where TestSessionGolden does not look: quanta shorter than a probe
// pass (so the attacker is preempted inside its own first prime),
// context switches that cost nothing, wide lines, an MPSoC attacker
// whose packets queue on the victim's links or share its tile, and a
// mesh whose hops are free. Long sessions make thousands of windows, so
// each session is rendered as its window count, an FNV-64a digest over
// every window, and the first and last window in full. Regenerate with
//
//	go test ./internal/soc -run TestSessionSweepGolden -update
//
// and review the diff.
func TestSessionSweepGolden(t *testing.T) {
	const pt = 0x0123456789abcdef
	var b strings.Builder
	race := func(head string, r sessionRunner) {
		fmt.Fprintf(&b, "%s earliest_round=%d\n", head, r.EarliestProbeRound())
		renderSweepSession(&b, "  RunSessionUntil(2)", r.RunSessionUntil(pt, 2))
		renderSweepSession(&b, "  RunSession", r.RunSession(pt))
	}

	for _, prim := range []ProbePrimitive{PrimitiveFlushReload, PrimitivePrimeProbe} {
		for _, mhz := range []uint64{1, 10} {
			for _, quantum := range []sim.Time{100 * sim.Microsecond, 2 * sim.Millisecond} {
				for _, ctx := range []uint64{0, 200} {
					for _, line := range []int{1, 4} {
						p := DefaultParams(mhz)
						p.Primitive, p.Quantum, p.CtxSwitchCycles, p.CacheLineBytes = prim, quantum, ctx, line
						race(fmt.Sprintf("single/%s %dMHz quantum=%v ctx=%d line=%d", prim, mhz, quantum, ctx, line),
							NewSingleSoC(testKey, p))
					}
				}
			}
		}
	}

	placements := []struct {
		name string
		set  func(p *Params)
	}{
		{"on-victim-links", func(p *Params) {
			p.VictimTile, p.CacheTile, p.AttackerTile = noc.Coord{X: 0, Y: 0}, noc.Coord{X: 2, Y: 0}, noc.Coord{X: 1, Y: 0}
		}},
		{"victim-tile", func(p *Params) { p.AttackerTile = p.VictimTile }},
		{"free-hops", func(p *Params) { p.Mesh.RouterCycles, p.Mesh.LinkCycles = 0, 0 }},
	}
	for _, pl := range placements {
		for _, mhz := range []uint64{10, 50} {
			p := DefaultParams(mhz)
			pl.set(&p)
			race(fmt.Sprintf("mpsoc/%s %dMHz", pl.name, mhz), NewMPSoC(testKey, p))
		}
	}
	for _, mhz := range []uint64{10, 50} {
		p := DefaultParams(mhz)
		p.AttackerTile = noc.Coord{X: 0, Y: 2}
		fmt.Fprintf(&b, "mpsoc %dMHz attacker=%v remote_access=%d\n", mhz, p.AttackerTile, uint64(NewMPSoC(testKey, p).RemoteAccessTime()))
	}

	got := []byte(b.String())
	path := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/soc -run TestSessionSweepGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sessions drifted from testdata/sweep.golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sessions drifted from testdata/sweep.golden: %d lines, want %d", len(gl), len(wl))
	}
}

// renderSweepSession writes one session as its ciphertext, window
// count and digest, first and last window, and cache counters.
func renderSweepSession(b *strings.Builder, head string, s Session) {
	h := fnv.New64a()
	for _, w := range s.Windows {
		fmt.Fprintf(h, "%d %d %d %d\n", w.FirstRound, w.LastRound, uint64(w.At), uint64(w.Set))
	}
	fmt.Fprintf(b, "%s ct=%016x windows=%d digest=%016x\n", head, s.Ciphertext, len(s.Windows), h.Sum64())
	if n := len(s.Windows); n > 0 {
		for _, w := range []ProbeWindow{s.Windows[0], s.Windows[n-1]} {
			fmt.Fprintf(b, "    rounds=%d..%d at=%d set=%v\n", w.FirstRound, w.LastRound, uint64(w.At), w.Set)
		}
	}
	fmt.Fprintf(b, "    cache=%+v\n", s.CacheStats)
}
