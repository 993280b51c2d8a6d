package soc

import (
	"sync"

	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/obs/metrics"
	"grinch/internal/probe"
	"grinch/internal/sim"
	"grinch/internal/victim"
)

// platform is what SingleSoC and MPSoC share: the victim's round keys,
// expanded once, and table, the session count, the probing meter, and
// the probed-session skeleton. Each platform supplies only its race, which starts the
// victim and the attacker of one session on the session's kernel.
type platform struct {
	params   Params
	rks      []gift.RoundKey64
	table    probe.TableLayout
	sessions uint64
	meter    *probe.Meter
	race     func(s *session)
}

func newPlatform(key bitutil.Word128, params Params, race func(s *session)) platform {
	return platform{
		params: params,
		rks:    gift.ExpandKey64(key),
		table:  probe.TableLayout{Base: params.TableBase, EntryBytes: 1, Entries: 16},
		race:   race,
	}
}

// Table returns the victim's S-box table layout.
func (p *platform) Table() probe.TableLayout { return p.table }

// Sessions returns how many victim encryptions the platform has run.
func (p *platform) Sessions() uint64 { return p.sessions }

// SetMetrics points the attacker's probing passes at a metrics
// registry (nil disables): on either platform, every setup pass (flush
// or prime) and observation pass (reload or probe) goes through one
// probe.Meter, which survives across sessions though each session
// probes an emptied, reused cache.
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
		cache:    sessionCache(p.params.CacheLineBytes),
		vic:      victim.New(p.rks, p.table, p.params.Timing),
		until:    probeUntilRound,
	}
	s.enc = s.vic.Start(pt)
	p.race(s)
	s.k.Run()
	s.out.CacheStats = s.cache.Stats()
	sessionCaches.Put(s.cache)
	return s.out
}

// sessionCaches holds the caches of finished sessions for reuse. It is
// shared by every platform, because a Table II job builds a new
// platform per key and runs a single race on it.
var sessionCaches sync.Pool

// sessionCache returns an emptied PaperConfig cache with the given line
// size (the one parameter PaperConfig takes): a pooled one when its
// line size fits, otherwise a new one.
func sessionCache(lineBytes int) *cache.Cache {
	// Declared with its type: grinchvet's loader stubs sync, and only a
	// typed variable lets it see that Reset is called here.
	var c *cache.Cache
	c, _ = sessionCaches.Get().(*cache.Cache)
	if c == nil || c.Config().LineBytes != lineBytes {
		return cache.MustNew(cache.PaperConfig(lineBytes))
	}
	c.Reset()
	return c
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
	enc   victim.Encryption
	until int
	out   Session
	// first labels the open window: the victim's round when it opened.
	first           int
	done, standDown bool
}

// encrypt issues the victim's next executor call on ex and reports
// whether the encryption is done, recording its ciphertext. Once the
// attacker stands down no probe will ever run again, so the remaining
// calls only touch the cache, without consuming virtual time: their
// timing is unobservable.
func (s *session) encrypt(ex victim.Executor) bool {
	if s.standDown {
		ex = untimed{s.cache}
	}
	ct, done := s.enc.Step(ex)
	if done {
		s.out.Ciphertext, s.done = ct, true
	}
	return done
}

// untimed is the victim's executor once the attacker has stood down:
// cache state only.
type untimed struct{ cache *cache.Cache }

func (untimed) Exec(uint64) {}

func (u untimed) Access(addr uint64) { u.cache.Access(addr) }

// open opens a probe window at the victim's current round; an idle
// victim means the window begins at round 1.
func (s *session) open() {
	s.first = max(s.vic.CurrentRound(), 1)
}

// label is the round a window whose observation starts now is labelled
// up to: the round in progress (the final round once the victim has
// finished).
func (s *session) label() int {
	last := s.vic.CurrentRound()
	if last == 0 && s.done {
		last = gift.Rounds64
	}
	return max(last, 1)
}

// record closes the open window, labelled up to last, with the line set
// its observation read. It reports whether the attacker probes on; when
// it does not, the attacker stands down.
func (s *session) record(last int, set probe.LineSet) bool {
	s.out.Windows = append(s.out.Windows, ProbeWindow{FirstRound: s.first, LastRound: last, Set: set, At: s.k.Now()})
	if s.done || last > s.until {
		s.standDown = true
		return false
	}
	return true
}
