package rtos

import (
	"testing"

	"grinch/internal/sim"
)

func newSched(k *sim.Kernel, quantum sim.Time, ctx uint64) *Scheduler {
	return New(k, sim.ClockMHz(10), Config{Quantum: quantum, CtxSwitchCycles: ctx})
}

func TestSingleTaskRunsToCompletion(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var end sim.Time
	s.Spawn("only", func(task *Task) {
		task.Exec(1000) // 1000 cycles at 10 MHz = 100 µs
		end = task.Now()
	})
	k.Run()
	if end != 100*sim.Microsecond {
		t.Fatalf("task finished at %v, want 100µs", end)
	}
}

func TestLoneTaskCrossesQuantumWithoutSwitching(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 1*sim.Millisecond, 100)
	var end sim.Time
	s.Spawn("only", func(task *Task) {
		// 50000 cycles = 5 ms = five quanta.
		for i := 0; i < 50; i++ {
			task.Exec(1000)
		}
		end = task.Now()
	})
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
		s.Spawn(name, func(task *Task) {
			for i := 0; i < 30; i++ {
				task.Exec(1000) // 100 µs chunks
				marks = append(marks, mark{name, task.Now()})
			}
		})
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
	s.Spawn("a", func(task *Task) {
		task.Exec(20000) // 2 ms CPU → spans two quanta
		endA = task.Now()
	})
	s.Spawn("b", func(task *Task) {
		task.Exec(20000)
	})
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
	ta = s.Spawn("a", func(task *Task) { task.Exec(30000) })
	tb = s.Spawn("b", func(task *Task) { task.Exec(10000) })
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
	ta = s.Spawn("a", func(task *Task) { task.Exec(30000) }) // 3 quanta
	s.Spawn("b", func(task *Task) { task.Exec(30000) })
	k.Run()
	if ta.preempted < 2 {
		t.Fatalf("a preempted %d times, want ≥ 2", ta.preempted)
	}
}

func TestSleepReleasesCPU(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var busyDone, sleeperWoke sim.Time
	s.Spawn("sleeper", func(task *Task) {
		task.Exec(100) // 10 µs
		task.Sleep(5 * sim.Millisecond)
		sleeperWoke = task.Now()
	})
	s.Spawn("busy", func(task *Task) {
		task.Exec(10000) // 1 ms
		busyDone = task.Now()
	})
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

func TestSleepContendedWakeup(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var woke sim.Time
	s.Spawn("sleeper", func(task *Task) {
		task.Sleep(1 * sim.Millisecond)
		task.Exec(1)
		woke = task.Now()
	})
	s.Spawn("hog", func(task *Task) {
		task.Exec(1_000_000) // 100 ms of CPU
	})
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
	s.Spawn("a", func(task *Task) {
		task.Exec(100)
		order = append(order, "a1")
		task.YieldSlice()
		task.Exec(100)
		order = append(order, "a2")
	})
	s.Spawn("b", func(task *Task) {
		task.Exec(100)
		order = append(order, "b1")
	})
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
			s.Spawn("t", func(task *Task) {
				for j := 0; j < 5; j++ {
					task.Exec(3333)
					times = append(times, task.Now())
				}
			})
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
