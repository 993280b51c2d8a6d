package sim

import (
	"fmt"
	"slices"
	"testing"
)

// The run-ahead fast path in Proc.Wait must be invisible: a program's
// event log is the same whether the kernel is driven by Run (which may
// run ahead), by RunUntil in slices, or by Step by hand (which never
// does). These tests build small random programs and compare the three.

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

// Op kinds of a process program.
const (
	opWait = iota
	opWaitUntil
	opSend
	opRecv
	opSchedule
	opKinds
)

type progOp struct {
	kind  int
	arg   int // delay, absolute time, or queue index
	value int // value sent
}

// progEvent is a plain callback scheduled before the run starts.
type progEvent struct {
	at     int
	cancel int // index of an earlier event to cancel, or -1
	send   int // queue to send on, or -1
	spawn  int // ticks of a short-lived process to spawn, or 0
}

type program struct {
	queues int
	procs  [][]progOp
	events []progEvent
}

func parseProgram(data []byte) program {
	r := &progReader{data: data}
	p := program{queues: 1 + r.next(2)}
	nprocs := 1 + r.next(4)
	for i := 0; i < nprocs; i++ {
		ops := make([]progOp, r.next(12))
		for j := range ops {
			ops[j] = progOp{kind: r.next(opKinds), arg: r.next(16), value: r.next(8)}
		}
		p.procs = append(p.procs, ops)
	}
	p.events = make([]progEvent, r.next(5))
	for i := range p.events {
		ev := progEvent{at: r.next(12), cancel: -1, send: -1}
		switch r.next(4) {
		case 1:
			ev.cancel = r.next(len(p.events))
		case 2:
			ev.send = r.next(p.queues)
		case 3:
			ev.spawn = 1 + r.next(4)
		}
		p.events[i] = ev
	}
	return p
}

// Drive modes.
const (
	driveStep = iota
	driveRun
	driveRunUntil
)

// execute runs prog on a fresh kernel and returns its (time, actor,
// operation) log.
func (prog program) execute(mode int) []string {
	k := NewKernel()
	var log []string
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s ", uint64(k.Now()), who)+fmt.Sprintf(format, args...))
	}
	queues := make([]*Queue[int], prog.queues)
	for i := range queues {
		queues[i] = NewQueue[int](k)
	}
	events := make([]*Event, len(prog.events))
	for i, ev := range prog.events {
		events[i] = k.At(Time(ev.at), func() {
			logf(fmt.Sprintf("ev%d", i), "fire")
			switch {
			case ev.cancel >= 0:
				k.Cancel(events[ev.cancel])
			case ev.send >= 0:
				queues[ev.send].Send(100 + i)
			case ev.spawn > 0:
				name := fmt.Sprintf("ev%d.proc", i)
				k.Spawn(name, func(p *Proc) {
					for n := 0; n < ev.spawn; n++ {
						p.Wait(Time(n))
						logf(name, "tick %d", n)
					}
				})
			}
		})
	}
	for i, ops := range prog.procs {
		name := fmt.Sprintf("p%d", i)
		k.Spawn(name, func(p *Proc) {
			logf(name, "start")
			for j, op := range ops {
				switch op.kind {
				case opWait:
					p.Wait(Time(op.arg % 4))
					logf(name, "wait")
				case opWaitUntil:
					p.WaitUntil(Time(op.arg))
					logf(name, "waituntil %d", op.arg)
				case opSend:
					queues[op.arg%len(queues)].Send(op.value)
					logf(name, "send %d", op.value)
				case opRecv:
					v := queues[op.arg%len(queues)].Recv(p)
					logf(name, "recv %d", v)
				case opSchedule:
					tag := fmt.Sprintf("%s.cb%d", name, j)
					k.Schedule(Time(op.arg%4), func() { logf(tag, "fire") })
				}
			}
			logf(name, "exit")
		})
	}

	switch mode {
	case driveStep:
		for k.Step() {
		}
	case driveRunUntil:
		k.RunUntil(3)
		k.RunUntil(9)
	}
	// Run drains whatever is left and tears down processes still parked
	// on a queue, so no goroutine outlives the program.
	k.Run()
	return log
}

// checkRunAhead fails t if the program's log differs between drive
// modes.
func checkRunAhead(t *testing.T, data []byte) {
	t.Helper()
	prog := parseProgram(data)
	want := prog.execute(driveStep)
	for _, mode := range []int{driveRun, driveRunUntil} {
		if got := prog.execute(mode); !slices.Equal(got, want) {
			t.Fatalf("program %x: drive mode %d log\n%q\ndiffers from Step-driven log\n%q", data, mode, got, want)
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

// TestRunUntilBoundsRunAhead: a process waiting in a loop must never see
// the clock pass RunUntil's limit, however empty the event queue is.
func TestRunUntilBoundsRunAhead(t *testing.T) {
	k := NewKernel()
	var seen Time
	k.Spawn("loop", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(7)
			seen = p.Now()
		}
	})
	for _, limit := range []Time{100, 101, 250} {
		k.RunUntil(limit)
		if seen > limit || k.Now() != limit {
			t.Fatalf("RunUntil(%v): process saw %v, clock at %v", limit, seen, k.Now())
		}
		if want := limit / 7 * 7; seen != want {
			t.Fatalf("RunUntil(%v): last wake-up at %v, want %v", limit, seen, want)
		}
	}
	k.Stop()
	k.Run()
}

// TestStopThenWaitDoesNotRunOn: once Stop is called, a Wait parks the
// process and the shutdown kills it, even with nothing else queued.
func TestStopThenWaitDoesNotRunOn(t *testing.T) {
	k := NewKernel()
	reached := false
	k.Spawn("p", func(p *Proc) {
		k.Stop()
		p.Wait(1)
		reached = true
	})
	k.Run()
	if reached {
		t.Fatal("process ran past a Wait after Stop")
	}
}

// TestSameInstantEventFiresFirst: an event queued earlier for the very
// instant a process wakes at has the lower sequence number and must run
// before the process resumes.
func TestSameInstantEventFiresFirst(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Schedule(10, func() { log = append(log, "event") })
	k.Spawn("p", func(p *Proc) {
		p.Wait(10)
		log = append(log, "proc")
	})
	k.Run()
	if !slices.Equal(log, []string{"event", "proc"}) {
		t.Fatalf("order %v, want [event proc]", log)
	}
}

// TestStepNeverRunsAhead: a caller stepping the kernel by hand sees one
// event per Step, including a zero-length Wait at time zero.
func TestStepNeverRunsAhead(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Spawn("p", func(p *Proc) {
		p.Wait(0)
		marks = append(marks, p.Now())
		p.Wait(5)
		marks = append(marks, p.Now())
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

// BenchmarkWait measures one Proc.Wait: alone, it is taken in place by
// run-ahead; against a second process waking at the same instants,
// every Wait parks and hands control through the kernel.
func BenchmarkWait(b *testing.B) {
	b.Run("alone", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel()
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Wait(1)
			}
		})
		b.ResetTimer()
		k.Run()
	})
	b.Run("competing", func(b *testing.B) {
		b.ReportAllocs()
		k := NewKernel()
		for _, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < b.N/2; i++ {
					p.Wait(1)
				}
			})
		}
		b.ResetTimer()
		k.Run()
	})
}
