package rtos

import (
	"strings"
	"testing"

	"grinch/internal/sim"
)

func TestTaskAccessors(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 0)
	var task *Task
	task = s.Spawn("worker", program(func(tt *Task) {
		if tt.name != "worker" {
			t.Errorf("Name = %q", tt.name)
		}
		if tt.actor == nil {
			t.Error("actor nil")
		}
		tt.Exec(10)
	}))
	k.Run()
	if task.runtime == 0 {
		t.Error("Runtime not accounted")
	}
}

func TestSchedulerString(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 0)
	if !strings.Contains(s.String(), "idle") {
		t.Errorf("idle scheduler renders as %q", s.String())
	}
	s.Spawn("a", program(func(task *Task) {
		if !strings.Contains(s.String(), "a") {
			t.Errorf("running scheduler renders as %q", s.String())
		}
		task.Exec(1)
	}))
	k.Run()
}

func TestSchedulerClock(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 0)
	if s.clock.Period != sim.ClockMHz(10).Period {
		t.Fatal("Clock() mismatch")
	}
}

// TestRecvFastPathKeepsCPU: a Wake that arrives before the task blocks
// is kept, so the Block that would receive it neither gives up the core
// nor reschedules.
func TestRecvFastPathKeepsCPU(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	switchesBefore := uint64(0)
	var recv *Task
	recv = s.Spawn("recv", program(
		func(task *Task) {
			switchesBefore = s.switches
			recv.Wake()
			task.Block()
		},
		func(task *Task) {
			if s.switches != switchesBefore || s.current != task {
				t.Error("Block after a Wake rescheduled")
			}
			task.Exec(1)
		},
	))
	k.Run()
	if recv.runtime == 0 {
		t.Fatal("task never ran past its Block")
	}
}

// TestRecvBlockingPath: a task blocked waiting for a value gives the
// core to others and resumes only after the Wake that delivers it.
func TestRecvBlockingPath(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	var got string
	var at sim.Time
	var msg string
	var recv *Task
	recv = s.Spawn("recv", program(
		func(task *Task) { task.Block() },
		func(task *Task) {
			got, at = msg, task.Now()
			task.Exec(1)
		},
	))
	var otherDone sim.Time
	s.Spawn("other", execs(1, 100, func(task *Task) { otherDone = task.Now() })) // runs while recv blocks
	later(k, 5*sim.Millisecond, func() {
		msg = "late"
		recv.Wake()
	})
	k.Run()
	if got != "late" || at < 5*sim.Millisecond {
		t.Fatalf("got %q at %v", got, at)
	}
	if otherDone != 10*sim.Microsecond {
		t.Fatalf("other finished at %v, want 10µs: the blocked task held the core", otherDone)
	}
}

func TestManyTasksRoundRobinFairness(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 10)
	const n = 5
	runtimes := make([]*Task, n)
	for i := 0; i < n; i++ {
		runtimes[i] = s.Spawn("t", execs(1, 50_000, nil)) // 5 ms CPU each
	}
	k.Run()
	for i, task := range runtimes {
		if task.runtime != 5*sim.Millisecond {
			t.Fatalf("task %d runtime %v", i, task.runtime)
		}
	}
	// Total wall time ≈ 25 ms + switch overhead; fairness means nobody
	// finished before 21 ms (they interleave).
	if k.Now() < 25*sim.Millisecond {
		t.Fatalf("simulation ended at %v", k.Now())
	}
}

func TestExecZeroIsNoop(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 0)
	var before, after sim.Time
	s.Spawn("z", program(
		func(task *Task) { task.Exec(1) },
		func(task *Task) {
			before = task.Now()
			task.Exec(0)
		},
		func(task *Task) { after = task.Now() },
	))
	k.Run()
	if before != after {
		t.Fatal("Exec(0) advanced time")
	}
}
