package rtos

import (
	"testing"

	"grinch/internal/sim"
)

func newSched(k *sim.Kernel, quantum sim.Time, ctx uint64) *Scheduler {
	return New(k, sim.ClockMHz(10), Config{Quantum: quantum, CtxSwitchCycles: ctx})
}

// program is a task step that runs ops in order, one per step, and is
// done after the last.
func program(ops ...func(t *Task)) func(t *Task) bool {
	i := 0
	return func(t *Task) bool {
		if i == len(ops) {
			return true
		}
		ops[i](t)
		i++
		return false
	}
}

// execs is a task that charges n cycles in each of count steps, calling
// after (if not nil) at the start of each later step.
func execs(count int, n uint64, after func(t *Task)) func(t *Task) bool {
	ops := make([]func(t *Task), 0, count+1)
	for i := 0; i <= count; i++ {
		ops = append(ops, func(t *Task) {
			if i > 0 && after != nil {
				after(t)
			}
			if i < count {
				t.Exec(n)
			}
		})
	}
	return program(ops...)
}

// later starts an actor on k that runs fn once d has passed.
func later(k *sim.Kernel, d sim.Time, fn func()) {
	waited := false
	k.Go(func() (sim.Time, bool) {
		if !waited {
			waited = true
			return d, false
		}
		fn()
		return 0, true
	})
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var end sim.Time
	s.Spawn("only", program(
		func(task *Task) { task.Exec(1000) }, // 1000 cycles at 10 MHz = 100 µs
		func(task *Task) { end = task.Now() },
	))
	k.Run()
	if end != 100*sim.Microsecond {
		t.Fatalf("task finished at %v, want 100µs", end)
	}
}

func TestLoneTaskCrossesQuantumWithoutSwitching(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 1*sim.Millisecond, 100)
	var end sim.Time
	// 50000 cycles = 5 ms = five quanta.
	s.Spawn("only", execs(50, 1000, func(task *Task) { end = task.Now() }))
	k.Run()
	// Only the initial grant's context switch should be paid.
	if want := 5*sim.Millisecond + 10*sim.Microsecond; end != want {
		t.Fatalf("lone task finished at %v, want %v", end, want)
	}
	if s.switches != 1 {
		t.Fatalf("switches = %d, want 1", s.switches)
	}
}

func TestTwoTasksAlternateByQuantum(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 1*sim.Millisecond, 0)
	type mark struct {
		who string
		at  sim.Time
	}
	var marks []mark
	spawn := func(name string) {
		// 100 µs chunks
		s.Spawn(name, execs(30, 1000, func(task *Task) {
			marks = append(marks, mark{name, task.Now()})
		}))
	}
	spawn("a")
	spawn("b")
	k.Run()

	// Within any 1 ms quantum window only one task should make progress.
	// Check alternation: find first mark of each; "a" must own [0,1ms),
	// "b" [1ms,2ms), etc.
	for _, m := range marks {
		slot := uint64(m.at-1) / uint64(sim.Millisecond) // time slot index
		wantOwner := "a"
		if slot%2 == 1 {
			wantOwner = "b"
		}
		if m.who != wantOwner {
			t.Fatalf("mark %s at %v lands in slot %d owned by %s", m.who, m.at, slot, wantOwner)
		}
	}
	// Both tasks ran 3 ms of CPU; total span 6 ms.
	if k.Now() != 6*sim.Millisecond {
		t.Fatalf("simulation ended at %v, want 6ms", k.Now())
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	k := sim.NewKernel()
	// 1 ms quantum, 1000-cycle (100 µs) context switch.
	s := newSched(k, 1*sim.Millisecond, 1000)
	var endA sim.Time
	s.Spawn("a", execs(1, 20000, func(task *Task) { endA = task.Now() })) // 2 ms CPU → spans two quanta
	s.Spawn("b", execs(1, 20000, nil))
	k.Run()
	// a: switch(0.1) + run 1ms, b: switch(0.1) + 1ms, a: switch + 1ms → a
	// done at 3.3 ms.
	if want := 3300 * sim.Microsecond; endA != want {
		t.Fatalf("a finished at %v, want %v", endA, want)
	}
}

func TestRuntimeAccounting(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 1*sim.Millisecond, 50)
	var ta, tb *Task
	ta = s.Spawn("a", execs(1, 30000, nil))
	tb = s.Spawn("b", execs(1, 10000, nil))
	k.Run()
	if ta.runtime != 3*sim.Millisecond {
		t.Fatalf("a runtime %v, want 3ms", ta.runtime)
	}
	if tb.runtime != 1*sim.Millisecond {
		t.Fatalf("b runtime %v, want 1ms", tb.runtime)
	}
}

func TestPreemptionCount(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 1*sim.Millisecond, 0)
	var ta *Task
	ta = s.Spawn("a", execs(1, 30000, nil)) // 3 quanta
	s.Spawn("b", execs(1, 30000, nil))
	k.Run()
	if ta.preempted < 2 {
		t.Fatalf("a preempted %d times, want ≥ 2", ta.preempted)
	}
}

// TestSleepReleasesCPU: a task that blocks until an event wakes it 5 ms
// later (a sleep) gives the core to the other task at once, not after
// a full quantum, and resumes at its wake-up.
func TestSleepReleasesCPU(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var busyDone, sleeperWoke sim.Time
	var sleeper *Task
	sleeper = s.Spawn("sleeper", program(
		func(task *Task) { task.Exec(100) }, // 10 µs
		func(task *Task) {
			later(k, 5*sim.Millisecond, sleeper.Wake)
			task.Block()
		},
		func(task *Task) { sleeperWoke = task.Now() },
	))
	s.Spawn("busy", execs(1, 10000, func(task *Task) { busyDone = task.Now() })) // 1 ms
	k.Run()
	// busy must get the CPU as soon as sleeper sleeps (≈10 µs), not
	// after a full quantum.
	if busyDone != sim.Millisecond+10*sim.Microsecond {
		t.Fatalf("busy finished at %v", busyDone)
	}
	if sleeperWoke != 5*sim.Millisecond+10*sim.Microsecond {
		t.Fatalf("sleeper woke at %v", sleeperWoke)
	}
}

// TestSleepContendedWakeup: a task woken while another holds the core
// runs only once the holder's quantum expires.
func TestSleepContendedWakeup(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var woke sim.Time
	var sleeper *Task
	sleeper = s.Spawn("sleeper", program(
		func(task *Task) {
			later(k, sim.Millisecond, sleeper.Wake)
			task.Block()
		},
		func(task *Task) { task.Exec(1) },
		func(task *Task) { woke = task.Now() },
	))
	s.Spawn("hog", execs(1, 1_000_000, nil)) // 100 ms of CPU
	k.Run()
	// Sleeper wakes at 1 ms but the hog owns the core until its quantum
	// expires at 10 ms.
	if woke < 10*sim.Millisecond {
		t.Fatalf("sleeper ran at %v while hog's quantum was live", woke)
	}
}

func TestYieldSlice(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var order []string
	s.Spawn("a", program(
		func(task *Task) { task.Exec(100) },
		func(task *Task) {
			order = append(order, "a1")
			task.YieldSlice()
		},
		func(task *Task) { task.Exec(100) },
		func(task *Task) { order = append(order, "a2") },
	))
	s.Spawn("b", program(
		func(task *Task) { task.Exec(100) },
		func(task *Task) { order = append(order, "b1") },
	))
	k.Run()
	if len(order) != 3 || order[0] != "a1" || order[1] != "b1" || order[2] != "a2" {
		t.Fatalf("order = %v", order)
	}
}

func TestZeroQuantumPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewKernel(), sim.ClockMHz(10), Config{})
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []sim.Time {
		k := sim.NewKernel()
		s := newSched(k, 777*sim.Microsecond, 13)
		var times []sim.Time
		for i := 0; i < 3; i++ {
			s.Spawn("t", execs(5, 3333, func(task *Task) {
				times = append(times, task.Now())
			}))
		}
		k.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic mark count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestContextSwitchesAllocateNothing: a grant is the task's own actor
// step and the ready queue keeps its array, so a schedule's allocations
// do not grow with its context switches.
func TestContextSwitchesAllocateNothing(t *testing.T) {
	allocs := func(steps int) (float64, uint64) {
		var switches uint64
		n := testing.AllocsPerRun(20, func() {
			k := sim.NewKernel()
			s := newSched(k, sim.Millisecond, 100)
			for _, name := range []string{"a", "b"} {
				left := steps
				s.Spawn(name, func(task *Task) bool {
					left--
					task.Exec(1000) // 100 µs: ten steps a quantum
					return left < 0
				})
			}
			k.Run()
			switches = s.switches
		})
		return n, switches
	}
	few, fewSwitches := allocs(20)
	many, manySwitches := allocs(400)
	if manySwitches < 10*fewSwitches || many != few {
		t.Fatalf("%v allocations for %d context switches, %v for %d; want the same", few, fewSwitches, many, manySwitches)
	}
}
