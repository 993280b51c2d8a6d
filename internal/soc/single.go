package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/probe"
	"grinch/internal/rtos"
	"grinch/internal/sim"
)

// SingleSoC is the paper's first platform: one processor, a shared L1
// behind a bus, and an RTOS scheduler multiplexing the victim and the
// attacker on the core. On a shared core the attacker's observation
// opportunities are quantum-spaced, which is exactly why later rounds
// dominate the observations at higher clock rates (paper Table II).
type SingleSoC struct {
	platform
}

// NewSingleSoC builds the platform around a victim key.
func NewSingleSoC(key bitutil.Word128, params Params) *SingleSoC {
	return &SingleSoC{newPlatform(key, params, singleRace)}
}

// rtosExecutor charges victim/attacker work to an RTOS task, with
// each memory access charged a flat bus transfer cost plus the shared
// cache's latency.
type rtosExecutor struct {
	task      *rtos.Task
	cache     *cache.Cache
	busCycles uint64
}

func (e *rtosExecutor) Exec(cycles uint64) { e.task.Exec(cycles) }

func (e *rtosExecutor) Access(addr uint64) uint64 {
	res := e.cache.Access(addr)
	cycles := e.busCycles + res.Latency
	e.task.Exec(cycles)
	return cycles
}

// singleRace spawns the session's attacker and victim as RTOS tasks.
// The attacker is spawned first so its first prepare (flush or prime)
// precedes the victim's first lookup; it then hands the plaintext to
// the victim and observes at every scheduling opportunity.
func singleRace(s *session) {
	sched := rtos.New(s.k, s.clock, rtos.Config{
		Quantum:         s.params.Quantum,
		CtxSwitchCycles: s.params.CtxSwitchCycles,
	})
	ptq := sim.NewQueue[uint64](s.k)
	exec := func(t *rtos.Task) *rtosExecutor {
		return &rtosExecutor{task: t, cache: s.cache, busCycles: s.params.BusCyclesPerAccess}
	}

	sched.Spawn("attacker", func(t *rtos.Task) {
		ex := exec(t)
		// Both constructors inline here, so the passes and their
		// primitive stay on this task's stack.
		prepare, observe := s.flushReload()
		if s.params.Primitive == PrimitivePrimeProbe {
			prepare, observe = s.primeProbe()
		}
		read := func() probe.LineSet { return ex.charged(observe) }
		ex.charged(prepare)
		s.open()
		ptq.Send(s.pt)
		for {
			t.YieldSlice()
			if !s.window(read) {
				return
			}
			ex.charged(prepare)
			s.open()
		}
	})

	sched.Spawn("victim", func(t *rtos.Task) {
		s.encrypt(exec(t), rtos.Recv(t, ptq))
	})
}

// pass is one probing pass over the table: the lines it found touched
// (none, for a setup pass) and the cache cycles it spent. A probing
// primitive is two passes over the session's cache: prepare resets the
// observation window (flush, or prime) and observe reads it out
// (reload, or probe).
type pass func() (probe.LineSet, uint64)

// flushReload returns Flush+Reload's passes.
func (s *session) flushReload() (prepare, observe pass) {
	fr := &probe.FlushReload{Cache: s.cache, Table: s.table, Meter: s.meter}
	return func() (probe.LineSet, uint64) { return 0, fr.Flush() }, fr.Reload
}

// primeProbe returns Prime+Probe's passes; only the first prime costs,
// because every probe re-touches the attacker's lines.
func (s *session) primeProbe() (prepare, observe pass) {
	pp := &probe.PrimeProbe{Cache: s.cache, Table: s.table, EvictionBase: s.params.EvictionBase, Meter: s.meter}
	primed := false
	return func() (probe.LineSet, uint64) {
		if primed {
			return 0, 0
		}
		primed = true
		return 0, pp.Prime()
	}, pp.Probe
}

// charged runs p on the attacker's task, charging its cache cycles
// plus one bus transfer per cache operation (access or flush) it
// issued. A pass never yields, so the cache's counters move by its own
// operations only.
func (e *rtosExecutor) charged(p pass) probe.LineSet {
	before := e.cache.Stats()
	set, cycles := p()
	after := e.cache.Stats()
	ops := after.Accesses + after.Flushes - before.Accesses - before.Flushes
	e.Exec(cycles + ops*e.busCycles)
	return set
}
