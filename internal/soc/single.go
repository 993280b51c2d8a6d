package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
	"grinch/internal/rtos"
	"grinch/internal/sim"
	"grinch/internal/victim"
)

// SingleSoC is the paper's first platform: one processor, a shared L1
// behind a bus, and an RTOS scheduler multiplexing the victim and the
// attacker on the core. Each RunSession simulates one attacker-triggered
// encryption with interleaved Flush+Reload probing.
type SingleSoC struct {
	params   Params
	cipher   *gift.Cipher64
	table    probe.TableLayout
	sessions uint64
	meter    *probe.Meter
}

// NewSingleSoC builds the platform around a victim key.
func NewSingleSoC(key bitutil.Word128, params Params) *SingleSoC {
	return &SingleSoC{
		params: params,
		cipher: gift.NewCipher64FromWord(key),
		table:  probe.TableLayout{Base: params.TableBase, EntryBytes: 1, Entries: 16},
	}
}

// Table returns the victim's S-box table layout.
func (s *SingleSoC) Table() probe.TableLayout { return s.table }

// SetMetrics points the per-session probing primitives at a metrics
// registry (nil disables). The meter survives across sessions even
// though each session builds a throwaway prober over a fresh cache.
func (s *SingleSoC) SetMetrics(r *metrics.Registry) {
	s.meter = probe.NewMeter(r, s.params.Primitive.String())
}

// Sessions returns how many victim encryptions the platform has run.
func (s *SingleSoC) Sessions() uint64 { return s.sessions }

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

// RunSession simulates one encryption of pt: the attacker flushes the
// table, hands the plaintext to the victim, and reloads at every
// scheduling opportunity until the encryption completes, recording one
// probe window per opportunity. On a shared core those opportunities
// are quantum-spaced, which is exactly why later rounds dominate the
// observations at higher clock rates (paper Table II).
func (s *SingleSoC) RunSession(pt uint64) Session {
	return s.runSession(pt, gift.Rounds64)
}

// RunSessionUntil is RunSession with the attacker standing down once its
// windows cover probeUntilRound; the victim's remaining rounds are
// fast-forwarded.
func (s *SingleSoC) RunSessionUntil(pt uint64, probeUntilRound int) Session {
	return s.runSession(pt, probeUntilRound)
}

func (s *SingleSoC) runSession(pt uint64, probeUntilRound int) Session {
	s.sessions++
	k := sim.NewKernel()
	clock := sim.ClockMHz(s.params.ClockMHz)
	cch := cache.MustNew(cache.PaperConfig(s.params.CacheLineBytes))
	sched := rtos.New(k, clock, rtos.Config{
		Quantum:         s.params.Quantum,
		CtxSwitchCycles: s.params.CtxSwitchCycles,
	})
	vic := victim.New(s.cipher, s.table, s.params.Timing)
	ptq := sim.NewQueue[uint64](k)

	var sess Session
	done := false
	standDown := false

	// The attacker is spawned first so its first prepare (flush or
	// prime) precedes the victim's first lookup.
	sched.Spawn("attacker", func(t *rtos.Task) {
		ex := &rtosExecutor{task: t, cache: cch, busCycles: s.params.BusCyclesPerAccess}
		pr := s.newProber(cch)

		prepareCharged(ex, pr)
		first := roundOrStart(vic)
		ptq.Send(pt)

		for {
			t.YieldSlice()
			last := roundOrEnd(vic, done)
			set := observeCharged(ex, pr)
			sess.Windows = append(sess.Windows, ProbeWindow{
				FirstRound: first,
				LastRound:  last,
				Set:        set,
				At:         t.Now(),
			})
			if done || last > probeUntilRound {
				standDown = true
				break
			}
			prepareCharged(ex, pr)
			first = roundOrStart(vic)
		}
	})

	sched.Spawn("victim", func(t *rtos.Task) {
		ex := &rtosExecutor{task: t, cache: cch, busCycles: s.params.BusCyclesPerAccess}
		p := rtos.Recv(t, ptq)
		sess.Ciphertext = vic.Encrypt(&cutoverExecutor{
			slow: ex, fast: &fastExecutor{cache: cch}, standDown: &standDown,
		}, p)
		done = true
	})

	k.Run()
	sess.CacheStats = cch.Stats()
	return sess
}

// EarliestProbeRound reports the round number the attacker's first
// reload lands in — the paper's Table II metric.
func (s *SingleSoC) EarliestProbeRound() int {
	sess := s.RunSession(0x0123456789abcdef)
	if len(sess.Windows) == 0 {
		return 0
	}
	return sess.Windows[0].LastRound
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

// newProber builds the configured probing primitive over the platform
// cache.
func (s *SingleSoC) newProber(cch *cache.Cache) prober {
	if s.params.Primitive == PrimitivePrimeProbe {
		return &ppProber{pp: &probe.PrimeProbe{
			Cache:        cch,
			Table:        s.table,
			EvictionBase: s.params.EvictionBase,
			Meter:        s.meter,
		}}
	}
	return frProber{fr: &probe.FlushReload{Cache: cch, Table: s.table, Meter: s.meter}}
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

// roundOrStart labels a window's first round: an idle victim means the
// window begins at round 1.
func roundOrStart(v *victim.Victim) int {
	if r := v.CurrentRound(); r > 0 {
		return r
	}
	return 1
}

// roundOrEnd labels a window's last round: a finished victim means the
// window extends to the final round.
func roundOrEnd(v *victim.Victim, done bool) int {
	if r := v.CurrentRound(); r > 0 {
		return r
	}
	if done {
		return gift.Rounds64
	}
	return 1
}
