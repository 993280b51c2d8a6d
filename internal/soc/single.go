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
		pr := s.newProber()
		observe := func() probe.LineSet { return observeCharged(ex, pr) }
		prepareCharged(ex, pr)
		s.open()
		ptq.Send(s.pt)
		for {
			t.YieldSlice()
			if !s.window(observe) {
				return
			}
			prepareCharged(ex, pr)
			s.open()
		}
	})

	sched.Spawn("victim", func(t *rtos.Task) {
		s.encrypt(exec(t), rtos.Recv(t, ptq))
	})
}

// prober abstracts the attacker's probing primitive on a platform:
// Prepare resets the observation window (flush, or prime), Observe
// reads it out (reload, or probe). Both return the cache cycles spent
// plus the number of memory operations (for bus accounting).
type prober interface {
	Prepare() (cycles, accesses uint64)
	Observe() (set probe.LineSet, cycles, accesses uint64)
}

// frProber adapts Flush+Reload.
type frProber struct{ fr *probe.FlushReload }

func (p frProber) Prepare() (uint64, uint64) {
	lines := uint64(p.fr.Table.LinesIn(p.fr.Cache.Config().LineBytes))
	return p.fr.Flush(), lines
}

func (p frProber) Observe() (probe.LineSet, uint64, uint64) {
	lines := uint64(p.fr.Table.LinesIn(p.fr.Cache.Config().LineBytes))
	set, cycles := p.fr.Reload()
	return set, cycles, lines
}

// ppProber adapts Prime+Probe (the probe re-establishes the prime).
type ppProber struct {
	pp     *probe.PrimeProbe
	primed bool
}

func (p *ppProber) ops() uint64 {
	cfg := p.pp.Cache.Config()
	return uint64(p.pp.Table.LinesIn(cfg.LineBytes) * cfg.Ways)
}

func (p *ppProber) Prepare() (uint64, uint64) {
	if p.primed {
		// Probe already re-touched every attacker line.
		return 0, 0
	}
	p.primed = true
	return p.pp.Prime(), p.ops()
}

func (p *ppProber) Observe() (probe.LineSet, uint64, uint64) {
	set, cycles := p.pp.Probe()
	return set, cycles, p.ops()
}

// newProber builds the configured probing primitive over the session's
// cache.
func (s *session) newProber() prober {
	if s.params.Primitive == PrimitivePrimeProbe {
		return &ppProber{pp: &probe.PrimeProbe{
			Cache:        s.cache,
			Table:        s.table,
			EvictionBase: s.params.EvictionBase,
			Meter:        s.meter,
		}}
	}
	return frProber{fr: &probe.FlushReload{Cache: s.cache, Table: s.table, Meter: s.meter}}
}

// prepareCharged runs Prepare, charging cache and bus time.
func prepareCharged(ex *rtosExecutor, pr prober) {
	cycles, accesses := pr.Prepare()
	ex.Exec(cycles + accesses*ex.busCycles)
}

// observeCharged runs Observe, charging cache and bus time.
func observeCharged(ex *rtosExecutor, pr prober) probe.LineSet {
	set, cycles, accesses := pr.Observe()
	ex.Exec(cycles + accesses*ex.busCycles)
	return set
}
