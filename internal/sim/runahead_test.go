package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The run-ahead fast path in Actor steps must be invisible: a program's
// event log is the same whether Run drives the kernel (which may run
// ahead) or a caller steps it by hand (which never does). These tests
// build small random programs and compare the two.

// progReader hands out program bytes, then zeros once they run out.
type progReader struct {
	data []byte
	pos  int
}

func (r *progReader) next(n int) int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b) % n
}

// Op kinds of an actor program.
const (
	opWait     = iota // end the step, waiting arg%4
	opSleep           // end the step done: the actor sleeps until a Wake
	opWake            // wake actor arg, if it sleeps, after arg%3
	opSchedule        // start an actor that fires once arg%4 has passed
	opKinds
)

type progOp struct {
	kind int
	arg  int
}

// progEvent is an actor started before the run that fires once, at at.
type progEvent struct {
	at     int
	cancel int // event to call off if it has not fired, or -1
	wake   int // actor to wake, or -1
	spawn  int // waits of a short-lived actor to start, or 0
}

type program struct {
	actors [][]progOp
	events []progEvent
}

func parseProgram(data []byte) program {
	r := &progReader{data: data}
	var p program
	nactors := 1 + r.next(4)
	for i := 0; i < nactors; i++ {
		ops := make([]progOp, r.next(12))
		for j := range ops {
			ops[j] = progOp{kind: r.next(opKinds), arg: r.next(16)}
		}
		p.actors = append(p.actors, ops)
	}
	p.events = make([]progEvent, r.next(5))
	for i := range p.events {
		ev := progEvent{at: r.next(12), cancel: -1, wake: -1}
		switch r.next(4) {
		case 1:
			ev.cancel = r.next(len(p.events))
		case 2:
			ev.wake = r.next(nactors)
		case 3:
			ev.spawn = 1 + r.next(4)
		}
		p.events[i] = ev
	}
	return p
}

// execute runs prog on a fresh kernel, driven by Run or, with byHand,
// by Step, and returns its (time, actor, operation) log.
func (prog program) execute(byHand bool) []string {
	k := NewKernel()
	var log []string
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", uint64(k.Now()), who)+fmt.Sprintf(format, args...))
	}
	actors := make([]*Actor, len(prog.actors))
	sleeping := make([]bool, len(prog.actors))
	wake := func(who string, i int, delay Time) {
		if sleeping[i] {
			sleeping[i] = false
			logf(who, "wake a%d after %d", i, uint64(delay))
			actors[i].Wake(delay)
		}
	}

	cancelled := make([]bool, len(prog.events))
	for i, ev := range prog.events {
		name := fmt.Sprintf("ev%d", i)
		after(k, Time(ev.at), func() {
			if cancelled[i] {
				return
			}
			logf(name, "fire")
			switch {
			case ev.cancel >= 0:
				cancelled[ev.cancel] = true
			case ev.wake >= 0:
				wake(name, ev.wake, 0)
			case ev.spawn > 0:
				ticks := 0
				k.Go(func() (Time, bool) {
					logf(name+".actor", "tick %d", ticks)
					ticks++
					return Time(ticks - 1), ticks > ev.spawn
				})
			}
		})
	}
	for i, ops := range prog.actors {
		name := fmt.Sprintf("a%d", i)
		pc := 0
		actors[i] = k.Go(func() (Time, bool) {
			logf(name, "step")
			for pc < len(ops) {
				op := ops[pc]
				pc++
				switch op.kind {
				case opWait:
					logf(name, "wait %d", op.arg%4)
					return Time(op.arg % 4), false
				case opSleep:
					logf(name, "sleep")
					sleeping[i] = true
					return 0, true
				case opWake:
					wake(name, op.arg%len(prog.actors), Time(op.arg%3))
				case opSchedule:
					tag := fmt.Sprintf("%s.cb%d", name, pc-1)
					after(k, Time(op.arg%4), func() { logf(tag, "fire") })
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

// checkRunAhead fails t if the program's log under Run differs from its
// log when stepped by hand.
func checkRunAhead(t *testing.T, data []byte) {
	t.Helper()
	prog := parseProgram(data)
	if got, want := prog.execute(false), prog.execute(true); !slices.Equal(got, want) {
		t.Fatalf("program %x: log under Run\n%q\ndiffers from the hand-stepped log\n%q", data, got, want)
	}
}

func TestRunAheadMatchesStep(t *testing.T) {
	// A fixed xorshift stream: a few hundred programs, same every run.
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 300; i++ {
		data := make([]byte, 24+i%64)
		for j := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[j] = byte(x)
		}
		checkRunAhead(t, data)
	}
}

func FuzzRunAheadMatchesStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 5, 0, 1, 0, 2, 0, 2, 1, 3, 1, 3, 4, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("program too long")
		}
		checkRunAhead(t, data)
	})
}

// TestSameInstantEventFiresFirst: an actor queued earlier for the very
// instant another actor's wait ends steps first, so the waiting actor
// must queue rather than run ahead.
func TestSameInstantEventFiresFirst(t *testing.T) {
	k := NewKernel()
	var log []string
	after(k, 10, func() { log = append(log, "event") })
	steps := 0
	k.Go(func() (Time, bool) {
		steps++
		if steps == 1 {
			return 10, false
		}
		log = append(log, "actor")
		return 0, true
	})
	k.Run()
	if !slices.Equal(log, []string{"event", "actor"}) {
		t.Fatalf("order %v, want [event actor]", log)
	}
}

// TestStepNeverRunsAhead: a caller stepping the kernel by hand sees one
// actor step per Step, including after a zero-length wait at time zero.
func TestStepNeverRunsAhead(t *testing.T) {
	k := NewKernel()
	var marks []Time
	steps := 0
	k.Go(func() (Time, bool) {
		steps++
		switch steps {
		case 1:
			return 0, false
		case 2:
			marks = append(marks, k.Now())
			return 5, false
		}
		marks = append(marks, k.Now())
		return 0, true
	})
	for want := 0; want < 2; want++ {
		if !k.Step() {
			t.Fatal("kernel drained early")
		}
		if len(marks) != want {
			t.Fatalf("after %d steps: marks %v", want+1, marks)
		}
	}
	k.Run()
	if !slices.Equal(marks, []Time{0, 5}) {
		t.Fatalf("marks %v, want [0 5]", marks)
	}
}

// BenchmarkWait measures one actor wait: alone, it is taken in place by
// run-ahead; against a second actor waking at the same instants, every
// wait is queued and popped. Neither may allocate.
func BenchmarkWait(b *testing.B) {
	for _, c := range []struct {
		name   string
		actors int
	}{{"alone", 1}, {"competing", 2}} {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			left := make([]int, c.actors)
			actors := make([]*Actor, c.actors)
			for i := range actors {
				actors[i] = k.Go(func() (Time, bool) {
					left[i]--
					return 1, left[i] < 0
				})
			}
			k.Run()
			// waits wakes every actor for an equal share of n waits.
			waits := func(n int) {
				for i, a := range actors {
					left[i] = n / c.actors
					a.Wake(0)
				}
				k.Run()
			}
			if allocs := testing.AllocsPerRun(10, func() { waits(1000) }); allocs != 0 {
				b.Fatalf("%.1f allocs per 1000 waits, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			waits(b.N)
		})
	}
}
