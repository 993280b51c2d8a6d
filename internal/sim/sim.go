// Package sim is a small deterministic discrete-event simulation kernel.
// It drives every platform model in this repository (NoC, RTOS, SoC):
// components schedule callbacks on a virtual clock, and the actors of a
// race (victim, attacker, RTOS tasks) are step functions that the
// kernel calls on the caller's goroutine, each step returning how long
// the actor waits before its next one.
//
// Determinism: events fire in strict (time, schedule-order) sequence,
// one at a time, so a simulation's outcome is a pure function of its
// inputs — no real-time or goroutine scheduling effects leak in.
// Virtual time is in picoseconds, which divides every clock period of
// interest exactly (10 MHz = 100 000 ps).
//
// Run-ahead: while Run drives the kernel, an actor whose wait would end
// at the very next event to fire — every queued event is strictly
// later — takes that wait in place and steps again, instead of queuing
// its event and having Run pop it straight back. It advances the clock
// and the schedule counter exactly as popping the event would have, so
// no event can be reordered: the actor's event would have carried the
// highest sequence number yet and an earlier (time, seq) than anything
// queued, and nothing else runs between queuing it and firing it. An
// event already queued for the same instant has a lower sequence number
// and fires first, so that case queues as before. A caller driving Step
// by hand never runs ahead.
package sim

import (
	"container/heap"
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

// Event is a scheduled callback. The zero value is inert.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	index     int // heap index; -1 when not queued
	cancelled bool
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel owns the virtual clock and the event queue.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
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

// Schedule runs fn after delay. Events scheduled for the same instant run
// in scheduling order.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute time t, which must not be in the past.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, k.now))
	}
	e := &Event{}
	k.push(e, t, fn)
	return e
}

// push queues e to fire fn at t, after everything already queued for t.
func (k *Kernel) push(e *Event, t Time, fn func()) {
	k.seq++
	*e = Event{at: t, seq: k.seq, fn: fn, index: -1}
	heap.Push(&k.events, e)
}

// Cancel removes a pending event. Cancelling a fired or already-cancelled
// event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		heap.Remove(&k.events, e.index)
	}
}

// Step fires the next event, if any, and reports whether one fired.
func (k *Kernel) Step() bool {
	for k.events.Len() > 0 {
		e := heap.Pop(&k.events).(*Event)
		if e.cancelled {
			continue
		}
		k.now = e.at
		e.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains. An actor that is done, or
// waiting for a Wake nothing will send, does not keep Run alive. A
// panic out of an event or a step unwinds out of Run on the caller's
// goroutine.
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
	// ev is the actor's one event and fire its handler, a.run bound
	// once: a waiting actor has exactly one pending step, so waiting
	// allocates nothing.
	ev   Event
	fire func()
}

// Go starts an actor: its first step runs at the current time, after
// everything already queued for this instant.
func (k *Kernel) Go(step func() (wait Time, done bool)) *Actor {
	a := &Actor{k: k, step: step}
	a.fire = a.run
	a.ev.index = -1
	a.Wake(0)
	return a
}

// Wake queues a done actor's next step after delay. An actor may wake
// itself only from a step that reports done.
func (a *Actor) Wake(delay Time) {
	if a.ev.index >= 0 {
		panic("sim: waking an actor that already has a pending step")
	}
	a.k.push(&a.ev, a.k.now+delay, a.fire)
}

// run steps the actor until it is done or queues its next step, taking
// each wait in place while it would end before any queued event (the
// package doc's run-ahead).
func (a *Actor) run() {
	k := a.k
	for {
		wait, done := a.step()
		if done {
			return
		}
		if a.ev.index >= 0 {
			panic("sim: an actor woke itself and stepped on")
		}
		t := k.now + wait
		if !k.running || len(k.events) > 0 && k.events[0].at <= t {
			k.push(&a.ev, t, a.fire)
			return
		}
		k.seq++
		k.now = t
	}
}
