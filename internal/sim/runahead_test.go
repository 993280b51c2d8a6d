package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The run-ahead fast path in Actor steps must be invisible: a program's
// event log is the same whether Run drives the kernel (which may run
// ahead), a caller steps it by hand (which never does), or the actors
// are replaced by a reference that queues every wait through Schedule.
// These tests build small random programs and compare the three.

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
	opSchedule        // schedule a callback arg%4 from now
	opKinds
)

type progOp struct {
	kind int
	arg  int
}

// progEvent is a plain callback scheduled before the run starts.
type progEvent struct {
	at     int
	cancel int // index of an earlier event to cancel, or -1
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

// starter starts an actor on k and returns its Wake.
type starter func(k *Kernel, step func() (Time, bool)) func(delay Time)

// kernelActor starts a step actor with the kernel's own Go.
func kernelActor(k *Kernel, step func() (Time, bool)) func(Time) {
	return k.Go(step).Wake
}

// scheduledActor is the reference: every step, wait and wake-up is an
// event queued through Schedule.
func scheduledActor(k *Kernel, step func() (Time, bool)) func(Time) {
	var fire func()
	fire = func() {
		if wait, done := step(); !done {
			k.Schedule(wait, fire)
		}
	}
	k.Schedule(0, fire)
	return func(delay Time) { k.Schedule(delay, fire) }
}

// execute runs prog on a fresh kernel, with actors started by start and
// the kernel driven by Run or, with byHand, by Step, and returns its
// (time, actor, operation) log.
func (prog program) execute(start starter, byHand bool) []string {
	k := NewKernel()
	var log []string
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", uint64(k.Now()), who)+fmt.Sprintf(format, args...))
	}
	wakes := make([]func(Time), len(prog.actors))
	sleeping := make([]bool, len(prog.actors))
	wake := func(who string, i int, delay Time) {
		if sleeping[i] {
			sleeping[i] = false
			logf(who, "wake a%d after %d", i, uint64(delay))
			wakes[i](delay)
		}
	}

	events := make([]*Event, len(prog.events))
	for i, ev := range prog.events {
		name := fmt.Sprintf("ev%d", i)
		events[i] = k.At(Time(ev.at), func() {
			logf(name, "fire")
			switch {
			case ev.cancel >= 0:
				k.Cancel(events[ev.cancel])
			case ev.wake >= 0:
				wake(name, ev.wake, 0)
			case ev.spawn > 0:
				ticks := 0
				start(k, func() (Time, bool) {
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
		wakes[i] = start(k, func() (Time, bool) {
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
					k.Schedule(Time(op.arg%4), func() { logf(tag, "fire") })
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

// checkRunAhead fails t if the program's log under Run or hand-stepping
// differs from the log of the Schedule-driven reference.
func checkRunAhead(t *testing.T, data []byte) {
	t.Helper()
	prog := parseProgram(data)
	want := prog.execute(scheduledActor, false)
	for _, byHand := range []bool{false, true} {
		if got := prog.execute(kernelActor, byHand); !slices.Equal(got, want) {
			t.Fatalf("program %x: actor log (stepped by hand: %v)\n%q\ndiffers from the Schedule-driven log\n%q", data, byHand, got, want)
		}
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

// TestSameInstantEventFiresFirst: an event queued earlier for the very
// instant an actor's wait ends has the lower sequence number and must
// run before the actor's next step.
func TestSameInstantEventFiresFirst(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Schedule(10, func() { log = append(log, "event") })
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
// wait is queued and popped.
func BenchmarkWait(b *testing.B) {
	waits := func(n int) func() (Time, bool) {
		return func() (Time, bool) {
			n--
			return 1, n < 0
		}
	}
	b.Run("alone", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel()
		k.Go(waits(b.N))
		b.ResetTimer()
		k.Run()
	})
	b.Run("competing", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel()
		k.Go(waits(b.N / 2))
		k.Go(waits(b.N / 2))
		b.ResetTimer()
		k.Run()
	})
}
