package soc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The session golden pins every value a platform race produces — the
// ciphertext, each probe window with its virtual timestamp, and the
// shared cache's counters — for both platforms and both single-SoC
// probing primitives at the paper's three clock rates. A change to the
// simulation kernel, the NoC, the bus or the RTOS that reorders a
// single event shows up here even when Table II's rounds do not move.
// Regenerate with
//
//	go test ./internal/soc -run TestSessionGolden -update
//
// and review the diff: a speed-up of the substrates must leave it
// unchanged.
var update = flag.Bool("update", false, "rewrite testdata/sessions.golden")

// sessionRunner is the platform surface the golden exercises.
type sessionRunner interface {
	RunSession(pt uint64) Session
	RunSessionUntil(pt uint64, probeUntilRound int) Session
	EarliestProbeRound() int
}

func renderSession(b *strings.Builder, head string, s Session) {
	fmt.Fprintf(b, "%s ct=%016x windows=%d\n", head, s.Ciphertext, len(s.Windows))
	for _, w := range s.Windows {
		fmt.Fprintf(b, "  rounds=%d..%d at=%d set=%v\n", w.FirstRound, w.LastRound, uint64(w.At), w.Set)
	}
	fmt.Fprintf(b, "  cache=%+v\n", s.CacheStats)
}

func TestSessionGolden(t *testing.T) {
	const untilRound = 2
	plaintexts := []uint64{0, 0x0123456789abcdef, 0xfedcba9876543210}
	platforms := []struct {
		name string
		make func(mhz uint64) sessionRunner
	}{
		{"single/flush_reload", func(mhz uint64) sessionRunner {
			return NewSingleSoC(testKey, DefaultParams(mhz))
		}},
		{"single/prime_probe", func(mhz uint64) sessionRunner {
			p := DefaultParams(mhz)
			p.Primitive = PrimitivePrimeProbe
			return NewSingleSoC(testKey, p)
		}},
		{"mpsoc", func(mhz uint64) sessionRunner {
			return NewMPSoC(testKey, DefaultParams(mhz))
		}},
	}

	var b strings.Builder
	for _, pl := range platforms {
		for _, mhz := range []uint64{10, 25, 50} {
			r := pl.make(mhz)
			fmt.Fprintf(&b, "%s %dMHz earliest_round=%d\n", pl.name, mhz, r.EarliestProbeRound())
			for _, pt := range plaintexts {
				renderSession(&b, fmt.Sprintf("%s %dMHz RunSession pt=%016x", pl.name, mhz, pt), r.RunSession(pt))
				renderSession(&b, fmt.Sprintf("%s %dMHz RunSessionUntil(%d) pt=%016x", pl.name, mhz, untilRound, pt),
					r.RunSessionUntil(pt, untilRound))
			}
		}
	}

	got := []byte(b.String())
	path := filepath.Join("testdata", "sessions.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/soc -run TestSessionGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sessions drifted from testdata/sessions.golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("sessions drifted from testdata/sessions.golden: %d lines, want %d", len(gl), len(wl))
	}
}
