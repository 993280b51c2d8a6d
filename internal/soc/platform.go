package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
	"grinch/internal/sim"
	"grinch/internal/victim"
)

// platform is what SingleSoC and MPSoC share: the victim's cipher and
// table, the session count, the probing meter, and the probed-session
// skeleton. Each platform supplies only its race, which spawns the
// victim and the attacker of one session.
type platform struct {
	params   Params
	cipher   *gift.Cipher64
	table    probe.TableLayout
	sessions uint64
	meter    *probe.Meter
	race     func(s *session)
}

func newPlatform(key bitutil.Word128, params Params, race func(s *session)) platform {
	return platform{
		params: params,
		cipher: gift.NewCipher64FromWord(key),
		table:  probe.TableLayout{Base: params.TableBase, EntryBytes: 1, Entries: 16},
		race:   race,
	}
}

// Table returns the victim's S-box table layout.
func (p *platform) Table() probe.TableLayout { return p.table }

// Sessions returns how many victim encryptions the platform has run.
func (p *platform) Sessions() uint64 { return p.sessions }

// SetMetrics points the per-session probing primitive at a metrics
// registry (nil disables). The meter survives across sessions even
// though each session builds a throwaway prober over a fresh cache.
func (p *platform) SetMetrics(r *metrics.Registry) {
	p.meter = probe.NewMeter(r, p.params.Primitive.String())
}

// RunSession simulates one encryption of pt under attacker probing:
// the attacker resets the table's lines, the victim encrypts, and the
// attacker records one probe window per observation until the
// encryption completes.
func (p *platform) RunSession(pt uint64) Session {
	return p.RunSessionUntil(pt, gift.Rounds64)
}

// RunSessionUntil is RunSession with the attacker standing down after
// the first window that passes probeUntilRound (with 0, after its
// first window); the victim's remaining rounds are fast-forwarded
// (their timing can no longer be observed), which makes attack
// campaigns over the platform far cheaper to simulate without changing
// anything the attacker sees.
func (p *platform) RunSessionUntil(pt uint64, probeUntilRound int) Session {
	p.sessions++
	s := &session{
		platform: p,
		k:        sim.NewKernel(),
		clock:    sim.ClockMHz(p.params.ClockMHz),
		cache:    cache.MustNew(cache.PaperConfig(p.params.CacheLineBytes)),
		vic:      victim.New(p.cipher, p.table, p.params.Timing),
		pt:       pt,
		until:    probeUntilRound,
	}
	p.race(s)
	s.k.Run()
	s.out.CacheStats = s.cache.Stats()
	return s.out
}

// EarliestProbeRound reports the round the attacker's first
// observation lands in — the paper's Table II metric. The race stands
// down after that first window: the victim's remaining rounds only
// replay their cache accesses, which no later probe reads.
func (p *platform) EarliestProbeRound() int {
	sess := p.RunSessionUntil(0x0123456789abcdef, 0)
	if len(sess.Windows) == 0 {
		return 0
	}
	return sess.Windows[0].LastRound
}

// session is one probed encryption in progress: the state a race's
// victim and attacker share.
type session struct {
	*platform
	k     *sim.Kernel
	clock sim.Clock
	cache *cache.Cache
	vic   *victim.Victim
	pt    uint64
	until int
	out   Session
	// first labels the open window: the victim's round when it opened.
	first           int
	done, standDown bool
}

// encrypt runs the victim on ex and records the ciphertext. Once the
// attacker stands down no probe will ever run again, so the remaining
// rounds only touch the cache, without consuming virtual time: their
// timing is unobservable.
func (s *session) encrypt(ex victim.Executor, pt uint64) {
	s.out.Ciphertext = s.vic.Encrypt(&cutoverExecutor{slow: ex, s: s}, pt)
	s.done = true
}

// open opens a probe window at the victim's current round; an idle
// victim means the window begins at round 1.
func (s *session) open() {
	s.first = max(s.vic.CurrentRound(), 1)
}

// window closes the open window with the line set observe reads out,
// labelling it up to the round in progress as the observation starts
// (the final round once the victim has finished). It reports whether
// the attacker probes on; when it does not, the attacker stands down.
func (s *session) window(observe func() probe.LineSet) bool {
	last := s.vic.CurrentRound()
	if last == 0 && s.done {
		last = gift.Rounds64
	}
	last = max(last, 1)
	set := observe()
	s.out.Windows = append(s.out.Windows, ProbeWindow{FirstRound: s.first, LastRound: last, Set: set, At: s.k.Now()})
	if s.done || last > s.until {
		s.standDown = true
		return false
	}
	return true
}

// cutoverExecutor is the victim's executor in a session: slow at full
// timing fidelity until the attacker stands down, then cache state
// only.
type cutoverExecutor struct {
	slow victim.Executor
	s    *session
}

func (e *cutoverExecutor) Exec(cycles uint64) {
	if !e.s.standDown {
		e.slow.Exec(cycles)
	}
}

func (e *cutoverExecutor) Access(addr uint64) uint64 {
	if e.s.standDown {
		e.s.cache.Access(addr)
		return 0
	}
	return e.slow.Access(addr)
}
