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
	task = s.Spawn("worker", func(tt *Task) {
		if tt.name != "worker" {
			t.Errorf("Name = %q", tt.name)
		}
		if tt.proc == nil {
			t.Error("Proc nil")
		}
		tt.Exec(10)
	})
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
	s.Spawn("a", func(task *Task) {
		if !strings.Contains(s.String(), "a") {
			t.Errorf("running scheduler renders as %q", s.String())
		}
		task.Exec(1)
	})
	k.Run()
}

func TestSchedulerClock(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 0)
	if s.clock.Period != sim.ClockMHz(10).Period {
		t.Fatal("Clock() mismatch")
	}
}

func TestRecvFastPathKeepsCPU(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	q := sim.NewQueue[int](k)
	q.Send(42)
	switchesBefore := uint64(0)
	s.Spawn("recv", func(task *Task) {
		switchesBefore = s.switches
		if v := Recv(task, q); v != 42 {
			t.Errorf("Recv = %d", v)
		}
		// A buffered value must not trigger a reschedule.
		if s.switches != switchesBefore {
			t.Error("Recv fast path rescheduled")
		}
		task.Exec(1)
	})
	k.Run()
}

func TestRecvBlockingPath(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, 10*sim.Millisecond, 0)
	q := sim.NewQueue[string](k)
	var got string
	var at sim.Time
	s.Spawn("recv", func(task *Task) {
		got = Recv(task, q)
		at = task.Now()
		task.Exec(1)
	})
	s.Spawn("other", func(task *Task) {
		task.Exec(100) // runs while recv blocks
	})
	k.Schedule(5*sim.Millisecond, func() { q.Send("late") })
	k.Run()
	if got != "late" || at < 5*sim.Millisecond {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestManyTasksRoundRobinFairness(t *testing.T) {
	k := sim.NewKernel()
	s := newSched(k, sim.Millisecond, 10)
	const n = 5
	runtimes := make([]*Task, n)
	for i := 0; i < n; i++ {
		runtimes[i] = s.Spawn("t", func(task *Task) {
			task.Exec(50_000) // 5 ms CPU each
		})
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
	s.Spawn("z", func(task *Task) {
		task.Exec(1)
		before = task.Now()
		task.Exec(0)
		after = task.Now()
	})
	k.Run()
	if before != after {
		t.Fatal("Exec(0) advanced time")
	}
}
