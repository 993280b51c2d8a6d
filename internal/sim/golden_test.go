package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The actor-programs golden pins the event logs of a fixed stream of
// random actor programs: actors that wait, sleep until a Wake, wake one
// another and start further actors mid-run. Each program must log the
// same events under Run, which may run ahead, and under hand-Step,
// which never does, and those logs must equal
// testdata/actor_programs.golden, so a change to how the kernel queues
// actors cannot reorder a single step unnoticed. Regenerate with
//
//	go test ./internal/sim -run TestActorProgramsGolden -update
//
// and review the diff: a rewrite of the kernel must leave it unchanged.
var update = flag.Bool("update", false, "rewrite testdata/actor_programs.golden")

// xorshift is the programs' fixed pseudo-random stream.
type xorshift uint64

func (x *xorshift) intn(n int) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return int(uint64(*x) % uint64(n))
}

// Operations of an actor program.
const (
	actWait  = iota // end the step, waiting arg%4
	actSleep        // end the step done: the actor sleeps until a Wake
	actWake         // wake actor arg, if it sleeps, after arg%3
	actStart        // start a late actor that ticks arg%4+1 times
	actKinds
)

type actorOp struct{ kind, arg int }

// actorProgram holds the operations of each actor started at time zero.
type actorProgram [][]actorOp

func randomActorProgram(x *xorshift) actorProgram {
	p := make(actorProgram, 1+x.intn(4))
	for i := range p {
		p[i] = make([]actorOp, x.intn(16))
		for j := range p[i] {
			p[i][j] = actorOp{kind: x.intn(actKinds), arg: x.intn(12)}
		}
	}
	return p
}

// run executes p on a fresh kernel, driven by Run or, with byHand, by
// Step, and returns its (time, actor, operation) log.
func (p actorProgram) run(byHand bool) []string {
	k := NewKernel()
	var log []string
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", uint64(k.Now()), who)+fmt.Sprintf(format, args...))
	}
	actors := make([]*Actor, len(p))
	sleeping := make([]bool, len(p))
	for i, ops := range p {
		name := fmt.Sprintf("a%d", i)
		pc, started := 0, 0
		actors[i] = k.Go(func() (Time, bool) {
			logf(name, "step")
			for pc < len(ops) {
				op := ops[pc]
				pc++
				switch op.kind {
				case actWait:
					logf(name, "wait %d", op.arg%4)
					return Time(op.arg % 4), false
				case actSleep:
					logf(name, "sleep")
					sleeping[i] = true
					return 0, true
				case actWake:
					if j := op.arg % len(p); sleeping[j] {
						sleeping[j] = false
						logf(name, "wake a%d after %d", j, op.arg%3)
						actors[j].Wake(Time(op.arg % 3))
					}
				case actStart:
					child := fmt.Sprintf("%s.%d", name, started)
					started++
					ticks, last := 0, op.arg%4
					logf(name, "start %s", child)
					k.Go(func() (Time, bool) {
						logf(child, "tick %d", ticks)
						ticks++
						return Time(ticks % 3), ticks > last
					})
				}
			}
			logf(name, "exit")
			return 0, true
		})
	}

	if byHand {
		for k.Step() {
		}
	} else {
		k.Run()
	}
	return log
}

func TestActorProgramsGolden(t *testing.T) {
	x := xorshift(0x2545f4914f6cdd1d)
	var b strings.Builder
	for i := 0; i < 120; i++ {
		p := randomActorProgram(&x)
		log := p.run(false)
		if stepped := p.run(true); !slices.Equal(stepped, log) {
			t.Fatalf("program %d: log under Run\n%q\ndiffers from the hand-stepped log\n%q", i, log, stepped)
		}
		fmt.Fprintf(&b, "program %d\n", i)
		for _, line := range log {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}

	path := filepath.Join("testdata", "actor_programs.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d of %s: got %q, want %q", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
