// Package sim is a small deterministic discrete-event simulation kernel.
// It drives every platform model in this repository (NoC, RTOS, SoC):
// the actors of a race (victim, attacker, RTOS tasks) are step
// functions that the kernel calls on the caller's goroutine, each step
// returning how long the actor waits before its next one.
//
// Determinism: actors step in strict (time, queuing-order) sequence,
// one at a time, so a simulation's outcome is a pure function of its
// inputs — no real-time or goroutine scheduling effects leak in.
// Virtual time is in picoseconds, which divides every clock period of
// interest exactly (10 MHz = 100 000 ps).
//
// Run-ahead: while Run drives the kernel, an actor whose wait ends
// strictly before every queued step takes that wait in place and steps
// again, instead of queuing itself and having Run pop it straight
// back: it would have gone to the head of the queue, and nothing runs
// between queuing it and popping it, so no step can be reordered. An
// actor already queued for the same instant was queued earlier and
// steps first, so that case queues as before. A caller driving Step by
// hand never runs ahead.
package sim

import (
	"fmt"
)

// Time is virtual time in picoseconds.
type Time uint64

// Common time units.
const (
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a time with a readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Clock converts between cycles and virtual time for one clock domain.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// ClockMHz builds a clock from a frequency in MHz. One cycle at f MHz is
// 10⁶/f picoseconds; frequencies that do not divide 10⁶ are rejected so
// no rounding error can accumulate over a simulation.
func ClockMHz(mhz uint64) Clock {
	if mhz == 0 || 1_000_000%mhz != 0 {
		panic(fmt.Sprintf("sim: frequency %d MHz has no exact picosecond period", mhz))
	}
	return Clock{Period: Time(1_000_000 / mhz)}
}

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n uint64) Time { return Time(n) * c.Period }

// CyclesAt returns how many full cycles fit in d.
func (c Clock) CyclesAt(d Time) uint64 { return uint64(d / c.Period) }

// Kernel owns the virtual clock and the queue of actors waiting to
// step.
type Kernel struct {
	now Time
	// queue holds the actors with a pending step in firing order: by
	// time, and in queuing order at the same time.
	queue []*Actor
	// running is set while Run drives the kernel: only then do actors
	// run ahead.
	running bool
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push queues a's next step at t, after every actor already queued for
// t or earlier. A race queues at most a few actors at once, so a linear
// insert from the back beats a heap.
func (k *Kernel) push(a *Actor, t Time) {
	a.at, a.queued = t, true
	q := append(k.queue, a)
	i := len(q) - 1
	for ; i > 0 && q[i-1].at > t; i-- {
		q[i] = q[i-1]
	}
	q[i] = a
	k.queue = q
}

// Step runs the next queued actor step, if any, and reports whether
// one ran.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	a := k.queue[0]
	// Shift in place: the queue keeps its array, so stepping allocates
	// nothing.
	n := copy(k.queue, k.queue[1:])
	k.queue[n] = nil
	k.queue = k.queue[:n]
	a.queued = false
	k.now = a.at
	a.run()
	return true
}

// Run steps actors until none is queued. An actor that is done, or
// waiting for a Wake nothing will send, does not keep Run alive. A
// panic out of a step unwinds out of Run on the caller's goroutine.
func (k *Kernel) Run() {
	k.running = true
	for k.Step() {
	}
	k.running = false
}

// Actor is a simulation actor written as a step function: each call does
// the actor's work at the current instant and returns how long it waits
// before its next step, or done. A done actor sleeps until Wake.
type Actor struct {
	k    *Kernel
	step func() (Time, bool)
	// at is the time of the actor's pending step, if queued: a waiting
	// actor has exactly one, so waiting allocates nothing.
	at     Time
	queued bool
}

// Go starts an actor: its first step runs at the current time, after
// every actor already queued for this instant.
func (k *Kernel) Go(step func() (wait Time, done bool)) *Actor {
	a := &Actor{k: k, step: step}
	a.Wake(0)
	return a
}

// Wake queues a done actor's next step after delay. An actor may wake
// itself only from a step that reports done.
func (a *Actor) Wake(delay Time) {
	if a.queued {
		panic("sim: waking an actor that already has a pending step")
	}
	a.k.push(a, a.k.now+delay)
}

// run steps the actor until it is done or queues its next step, taking
// each wait in place while it would end before any queued step (the
// package doc's run-ahead).
func (a *Actor) run() {
	k := a.k
	for {
		wait, done := a.step()
		if done {
			return
		}
		if a.queued {
			panic("sim: an actor woke itself and stepped on")
		}
		t := k.now + wait
		if !k.running || len(k.queue) > 0 && k.queue[0].at <= t {
			k.push(a, t)
			return
		}
		k.now = t
	}
}
