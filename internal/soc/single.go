package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/probe"
	"grinch/internal/rtos"
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

// rtosExecutor charges the victim's work to its RTOS task, with each
// memory access charged a flat bus transfer cost plus the shared
// cache's latency.
type rtosExecutor struct {
	task      *rtos.Task
	cache     *cache.Cache
	busCycles uint64
}

func (e *rtosExecutor) Exec(cycles uint64) { e.task.Exec(cycles) }

func (e *rtosExecutor) Access(addr uint64) {
	res := e.cache.Access(addr)
	e.task.Exec(e.busCycles + res.Latency)
}

// singleRace starts the session's attacker and victim as RTOS tasks.
// The attacker is spawned first so its first prepare (flush or prime)
// precedes the victim's first lookup; it then hands the plaintext to
// the victim, which blocks for it, and observes at every scheduling
// opportunity.
func singleRace(s *session) {
	sched := rtos.New(s.k, s.clock, rtos.Config{
		Quantum:         s.params.Quantum,
		CtxSwitchCycles: s.params.CtxSwitchCycles,
	})
	a := &singleAttacker{
		s:  s,
		fr: probe.FlushReload{Cache: s.cache, Table: s.table, Meter: s.meter},
		pp: probe.PrimeProbe{Cache: s.cache, Table: s.table, EvictionBase: s.params.EvictionBase, Meter: s.meter},
	}
	sched.Spawn("attacker", a.step)

	ex := &rtosExecutor{cache: s.cache, busCycles: s.params.BusCyclesPerAccess}
	handedOver := false
	ex.task = sched.Spawn("victim", func(t *rtos.Task) bool {
		if !handedOver {
			handedOver = true
			t.Block() // until the attacker hands over the plaintext
			return false
		}
		return s.encrypt(ex)
	})
	a.victim = ex.task
}

// singleAttacker is the single SoC's attacker task. Its steps are the
// points where the task charges work or yields the core: the first
// setup pass; opening the first window and handing the victim its
// plaintext; each observation pass; recording the window and the next
// setup pass; and opening the next window.
type singleAttacker struct {
	s      *session
	victim *rtos.Task
	fr     probe.FlushReload
	pp     probe.PrimeProbe
	primed bool
	pc     int
	// last and set are the window under observation.
	last int
	set  probe.LineSet
}

func (a *singleAttacker) step(t *rtos.Task) bool {
	s := a.s
	a.pc++
	switch a.pc {
	case 1:
		a.pass(t, false)
	case 2:
		s.open()
		a.victim.Wake()
		t.YieldSlice()
	case 3:
		a.last = s.label()
		a.set = a.pass(t, true)
	case 4:
		if !s.record(a.last, a.set) {
			return true
		}
		a.pass(t, false)
	case 5:
		s.open()
		t.YieldSlice()
		a.pc = 2
	}
	return false
}

// pass runs one probing pass over the table — the primitive's
// observation pass (reload, or probe), or its setup pass (flush, or
// prime) — and charges the attacker's task its cache cycles plus one
// bus transfer per cache operation (access or flush) it issued. Only
// the first prime costs, because every probe re-touches the attacker's
// lines. A pass runs at one instant, so the cache's counters move by
// its own operations only.
func (a *singleAttacker) pass(t *rtos.Task, observe bool) probe.LineSet {
	before := a.s.cache.Stats()
	var set probe.LineSet
	var cycles uint64
	switch primeProbe := a.s.params.Primitive == PrimitivePrimeProbe; {
	case primeProbe && observe:
		set, cycles = a.pp.Probe()
	case primeProbe && !a.primed:
		a.primed = true
		cycles = a.pp.Prime()
	case primeProbe:
	case observe:
		set, cycles = a.fr.Reload()
	default:
		cycles = a.fr.Flush()
	}
	after := a.s.cache.Stats()
	ops := after.Accesses + after.Flushes - before.Accesses - before.Flushes
	t.Exec(cycles + ops*a.s.params.BusCyclesPerAccess)
	return set
}
