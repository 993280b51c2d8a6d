// Package rtos models the preemptive round-robin task scheduler the
// GRINCH paper runs on its single-processor SoC ("RTOS … uses a quantum
// time of 10 milliseconds"). A task is a step function that the
// scheduler calls whenever the task holds the core with nothing left to
// charge: the step does the task's work at the current instant and
// charges CPU through Exec, or ends its slice with YieldSlice, or waits
// for another task with Block. When a task exhausts its quantum it is
// preempted at the next charge boundary and the next ready task runs
// after a context switch. A single runnable task keeps the CPU without
// paying switch costs.
//
// Each task is one sim actor. A grant is the task's own actor step after
// the context-switch delay, and the task resumes in a second step at
// the same instant, so a context switch queues no closure and allocates
// nothing.
//
// The scheduler is what turns cipher rounds into a probing race on a
// shared core: the attacker task only observes the cache when the victim
// is preempted, so the earliest probe-able round is quantum·f divided by
// the victim's cycles per round (paper Table II).
package rtos

import (
	"fmt"

	"grinch/internal/sim"
)

// Config describes the scheduler.
type Config struct {
	// Quantum is the time slice per task (the paper uses 10 ms).
	Quantum sim.Time
	// CtxSwitchCycles is the CPU cost of a context switch.
	CtxSwitchCycles uint64
}

// Scheduler is a single-core round-robin scheduler.
type Scheduler struct {
	k       *sim.Kernel
	clock   sim.Clock
	cfg     Config
	current *Task
	ready   []*Task
	// switches counts completed context switches.
	switches uint64
}

// New creates a scheduler for one core in clock domain clock.
func New(k *sim.Kernel, clock sim.Clock, cfg Config) *Scheduler {
	if cfg.Quantum == 0 {
		panic("rtos: zero quantum")
	}
	return &Scheduler{k: k, clock: clock, cfg: cfg}
}

// Task is a schedulable thread of execution.
type Task struct {
	name     string
	sched    *Scheduler
	actor    *sim.Actor
	step     func(t *Task) bool
	granted  bool     // the task's pending grant has landed
	sliceEnd sim.Time // absolute time the current slice expires
	// arriving is set while the task's next actor step will queue it
	// for the core (it was spawned, or woken from Block); blocked while
	// it waits for Wake; woken when a Wake came before its Block.
	arriving, blocked, woken bool
	// cycles is what the task's last step charged through Exec and has
	// not run yet, chunk the part of it running now; yield and block
	// are the step's YieldSlice and Block, taken once cycles reach 0.
	cycles       uint64
	chunk        sim.Time
	yield, block bool
	runtime      sim.Time // accumulated CPU time
	preempted    uint64
}

// Spawn creates a task that calls step each time it holds the core
// with its last step's work charged. step reports whether the task is
// done; a done task gives up the core for good.
func (s *Scheduler) Spawn(name string, step func(t *Task) (done bool)) *Task {
	t := &Task{name: name, sched: s, step: step, arriving: true}
	t.actor = s.k.Go(t.run)
	return t
}

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.sched.k.Now() }

// Exec charges n CPU cycles to the task once its step returns. They span
// preemptions as needed: execution pauses while other tasks hold the
// core and resumes on the task's next slice.
func (t *Task) Exec(n uint64) { t.cycles += n }

// YieldSlice ends the task's current slice (cooperative yield) once its
// step's cycles are charged, letting other ready tasks run before its
// next step.
func (t *Task) YieldSlice() { t.yield = true }

// Block makes the task, once its step's cycles are charged, give up the
// core until Wake; its next step then runs when the scheduler grants it
// the core again. If a Wake came first, Block keeps the core and the
// next step follows at once.
func (t *Task) Block() { t.block = true }

// Wake readies a task blocked in Block, at the current time. A Wake
// that comes before the task blocks is kept for its next Block.
func (t *Task) Wake() {
	if !t.blocked {
		t.woken = true
		return
	}
	t.blocked, t.arriving = false, true
	t.actor.Wake(0)
}

// enqueue marks t ready. Only a task arriving for the core or preempted
// off it is enqueued, so it is never in the queue already.
func (t *Task) enqueue() {
	t.sched.ready = append(t.sched.ready, t)
	t.sched.kick()
}

// kick grants the CPU to the head of the ready queue if the core is
// idle. The grant is the task's next actor step, after the
// context-switch delay.
func (s *Scheduler) kick() {
	if s.current != nil || len(s.ready) == 0 {
		return
	}
	next := s.ready[0]
	// Shift in place: the queue keeps its array, so a context switch
	// allocates nothing.
	s.ready = append(s.ready[:0], s.ready[1:]...)
	s.current = next
	s.switches++
	next.actor.Wake(s.clock.Cycles(s.cfg.CtxSwitchCycles))
}

// running reports whether t currently owns the core with a live slice.
func (t *Task) running() bool {
	return t.sched.current == t && t.granted
}

// turn ends t's slice if it has expired and reports whether t still
// owns the core: a lone task keeps the core with a fresh slice, while
// one with others ready is preempted and requeued behind them.
func (t *Task) turn() bool {
	s := t.sched
	if t.running() && t.Now() >= t.sliceEnd {
		if len(s.ready) == 0 {
			t.sliceEnd = t.Now() + s.cfg.Quantum
		} else {
			t.preempted++
			t.granted = false
			s.current = nil
			t.enqueue()
		}
	}
	return t.running()
}

// release gives up the CPU entirely (task blocking or exiting).
func (t *Task) release() {
	s := t.sched
	if s.current == t {
		t.granted = false
		s.current = nil
		s.kick()
	}
}

// run is the task's actor step. It queues an arriving task for the
// core, lands a grant, and otherwise charges the task's cycles one
// chunk at a time — as much as the slice has left — and takes its
// yield or block before calling its step again. Whenever the task does
// not own the core, run reports done: the next grant wakes it.
func (t *Task) run() (sim.Time, bool) {
	s := t.sched
	switch {
	case t.arriving:
		t.arriving = false
		t.enqueue()
		return 0, true
	case s.current == t && !t.granted:
		// The grant lands; the task resumes in its next actor step,
		// after whatever else is queued for this instant.
		t.sliceEnd = t.Now() + s.cfg.Quantum
		t.granted = true
		return 0, false
	}
	t.runtime += t.chunk
	t.chunk = 0
	for {
		switch {
		case t.cycles > 0:
			if !t.turn() {
				return 0, true
			}
			avail := s.clock.CyclesAt(t.sliceEnd - t.Now())
			if avail == 0 {
				// Less than one whole cycle left: treat the slice as over.
				t.sliceEnd = t.Now()
				continue
			}
			run := min(t.cycles, avail)
			t.cycles -= run
			t.chunk = s.clock.Cycles(run)
			return t.chunk, false
		case t.yield:
			t.yield = false
			t.sliceEnd = t.Now()
			if !t.turn() {
				return 0, true
			}
		case t.block:
			t.block = false
			if t.woken {
				t.woken = false
				continue
			}
			t.blocked = true
			t.release()
			return 0, true
		default:
			if t.step(t) {
				t.release()
				return 0, true
			}
		}
	}
}

// String describes the scheduler state (for debugging traces).
func (s *Scheduler) String() string {
	cur := "idle"
	if s.current != nil {
		cur = s.current.name
	}
	return fmt.Sprintf("rtos{current=%s ready=%d switches=%d}", cur, len(s.ready), s.switches)
}
