// Package sim is a small deterministic discrete-event simulation kernel.
// It drives every platform model in this repository (bus, NoC, RTOS,
// SoC): components schedule callbacks on a virtual clock, and concurrent
// actors (victim, attacker, routers) are written as coroutine-style
// processes that block on virtual time and message queues.
//
// Determinism: exactly one process runs at a time, handed control by the
// kernel in strict (time, schedule-order) sequence, so a simulation's
// outcome is a pure function of its inputs — no real-time or goroutine
// scheduling effects leak in. Virtual time is in picoseconds, which
// divides every clock period of interest exactly (10 MHz = 100 000 ps).
//
// Run-ahead: while Run or RunUntil drives the kernel, a Proc.Wait whose
// wake-up would be the very next event to fire — every queued event is
// strictly later, and the wake-up is within RunUntil's limit — takes
// that wake-up in place instead of parking the process goroutine and
// handing control to the kernel and back. It advances the clock and the
// schedule counter exactly as popping the wake-up event would have, so
// no event can be reordered: the wake-up event would have carried the
// highest sequence number yet and an earlier (time, seq) than anything
// queued, and nothing else runs between scheduling it and firing it. An
// event already queued for the same instant has a lower sequence number
// and fires first, so that case parks as before. Outside Run/RunUntil
// (a caller driving Step by hand) and once Stop has been called, Wait
// always parks.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sync/atomic"
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
	now      Time
	seq      uint64
	events   eventHeap
	procs    []*Proc
	stopping bool
	// running is set while Run or RunUntil drives the kernel; limit is
	// the latest time that run may reach. Together they bound run-ahead.
	running bool
	limit   Time
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

// Run fires events until the queue drains (or Stop is called). Processes
// blocked forever on queues do not keep Run alive; a drained queue with
// parked processes is the simulation's deadlock/quiescence state.
func (k *Kernel) Run() {
	k.running, k.limit = true, ^Time(0)
	for !k.stopping && k.Step() {
	}
	k.running = false
	k.finish()
}

// RunUntil fires events up to and including time t, then sets the clock
// to t.
func (k *Kernel) RunUntil(t Time) {
	k.running, k.limit = true, t
	for !k.stopping && k.events.Len() > 0 {
		if k.events[0].at > t {
			break
		}
		k.Step()
	}
	k.running = false
	if k.now < t {
		k.now = t
	}
	if k.stopping {
		k.finish()
	}
}

// Stop makes Run/RunUntil return after the current event and terminates
// all parked processes.
func (k *Kernel) Stop() { k.stopping = true }

// finish tears down parked processes so their goroutines exit.
func (k *Kernel) finish() {
	k.stopping = true
	for _, p := range k.procs {
		p.kill()
	}
	k.procs = nil
}

// errKilled aborts a process body when the kernel shuts down.
var errKilled = errors.New("sim: process killed")

// Proc is a coroutine-style simulation process. Its body runs on its own
// goroutine but never concurrently with the kernel or another process:
// control passes explicitly through Wait and queue operations.
type Proc struct {
	k    *Kernel
	name string
	// wake is p.dispatch, bound once, and wakeEv the event that fires
	// it: a parked process has exactly one pending wake-up, so parking
	// allocates nothing.
	wake   func()
	wakeEv Event
	resume chan struct{}
	parked chan struct{}
	// dead is atomic: a process marks itself dead on its own goroutine
	// while the kernel may concurrently kill() it during shutdown.
	dead   atomic.Bool
	killed chan struct{}
}

// Spawn starts a process at the current time. The body begins executing
// when the kernel reaches the spawn event.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		killed: make(chan struct{}),
	}
	p.wake = p.dispatch
	p.wakeEv.index = -1
	k.procs = append(k.procs, p)
	k.Schedule(0, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil && r != errKilled {
					panic(r)
				}
				p.dead.Store(true)
				select {
				case p.parked <- struct{}{}:
				case <-p.killed:
				}
			}()
			<-p.resume
			body(p)
		}()
		p.dispatch()
	})
	return p
}

// dispatch hands control to the process and waits for it to park or die.
// Runs on the kernel's goroutine.
func (p *Proc) dispatch() {
	if p.dead.Load() {
		return
	}
	p.resume <- struct{}{}
	<-p.parked
}

// park returns control to the kernel; the process blocks until its next
// resume event fires.
func (p *Proc) park() {
	p.parked <- struct{}{}
	select {
	case <-p.resume:
	case <-p.killed:
		panic(errKilled)
	}
}

// kill terminates a parked process goroutine.
func (p *Proc) kill() {
	if p.dead.Swap(true) {
		return
	}
	close(p.killed)
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Wait suspends the process for d of virtual time.
func (p *Proc) Wait(d Time) {
	k := p.k
	t := k.now + d
	if k.running && !k.stopping && t <= k.limit &&
		(len(k.events) == 0 || k.events[0].at > t) {
		// Run-ahead (see the package doc): the wake-up would fire next,
		// so take it in place.
		k.seq++
		k.now = t
		return
	}
	p.wakeAt(t)
	p.park()
}

// wakeAt queues p's wake-up at t on p's own event.
func (p *Proc) wakeAt(t Time) {
	if p.wakeEv.index >= 0 {
		panic(fmt.Sprintf("sim: process %s already has a pending wake-up", p.name))
	}
	p.k.push(&p.wakeEv, t, p.wake)
}

// WaitUntil suspends the process until absolute time t (no-op if t has
// passed).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.k.now {
		return
	}
	p.Wait(t - p.k.now)
}

// Queue is an unbounded FIFO channel between simulation processes.
// Send never blocks; Recv blocks the calling process until a value is
// available. Values are delivered in send order, and competing receivers
// are served in arrival order.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	waiters []*Proc
}

// NewQueue creates a queue bound to kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len returns the number of buffered values.
func (q *Queue[T]) Len() int { return len(q.items) }

// Send enqueues v and wakes the oldest waiting receiver, if any. Send may
// be called from process context or from a plain event callback.
func (q *Queue[T]) Send(v T) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		w.wakeAt(q.k.now)
	}
}

// Recv dequeues the next value, blocking p until one arrives.
func (q *Queue[T]) Recv(p *Proc) T {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// TryRecv dequeues a value without blocking; ok is false when empty.
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}
