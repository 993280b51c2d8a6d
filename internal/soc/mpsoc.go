package soc

import (
	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/noc"
	"grinch/internal/probe"
	"grinch/internal/sim"
)

// MPSoC is the paper's second platform: a tile-based multiprocessor with
// a mesh NoC (XY routing) and a shared cache tile. The attacker runs on
// its own tile, so it probes concurrently with the victim — the paper
// measured a ≈400 ns remote cache access against a ≈1.2 ms round time,
// which is why the MPSoC attacker reaches round 1 at every frequency
// (Table II).
type MPSoC struct {
	platform
}

// NewMPSoC builds the platform around a victim key. Its attacker always
// probes with remote Flush+Reload, whatever params.Primitive says.
func NewMPSoC(key bitutil.Word128, params Params) *MPSoC {
	params.Primitive = PrimitiveFlushReload
	return &MPSoC{newPlatform(key, params, mpsocRace)}
}

// nocCore is a dedicated core on its own tile whose memory accesses
// cross the mesh to the shared cache tile and back. Its executor calls
// queue the work; next then runs it, one wait per step of the core's
// actor: every packet that has not arrived by the time it is sent, the
// cache tile's processing when it takes time, and every Exec.
type nocCore struct {
	s    *session
	mesh *noc.Mesh
	tile noc.Coord
	// The queued work, run in this order: a 4-byte request to the cache
	// tile, processing there, a response of resp bytes back (every
	// response carries at least one), and a wait.
	request    bool
	processing sim.Time
	resp       int
	wait       sim.Time
	waiting    bool
}

func (c *nocCore) Exec(cycles uint64) { c.wait, c.waiting = c.s.clock.Cycles(cycles), true }

func (c *nocCore) Access(addr uint64) { c.reload(addr) }

// reload looks addr up in the shared cache and queues the round trip,
// with the cache's latency as its processing leg. State is updated on
// issue, which preserves access ordering at the µs scale the attack
// sees.
func (c *nocCore) reload(addr uint64) cache.Result {
	res := c.s.cache.Access(addr)
	c.request, c.processing, c.resp = true, c.s.clock.Cycles(res.Latency), c.s.params.CacheLineBytes
	return res
}

// next runs the queued work up to its next wait and returns it; ok is
// false once nothing is queued.
func (c *nocCore) next() (wait sim.Time, ok bool) {
	now, cch := c.s.k.Now(), c.s.params.CacheTile
	if c.request {
		c.request = false
		if t := c.mesh.Send(now, c.tile, cch, 4); t > now {
			return t - now, true
		}
	}
	if d := c.processing; d > 0 {
		c.processing = 0
		return d, true
	}
	if n := c.resp; n > 0 {
		c.resp = 0
		if t := c.mesh.Send(now, cch, c.tile, n); t > now {
			return t - now, true
		}
	}
	if c.waiting {
		c.waiting = false
		return c.wait, true
	}
	return 0, false
}

// victimStep is the victim's actor step: it runs the queued work, then
// issues the encryption's next executor call.
func (c *nocCore) victimStep() (sim.Time, bool) {
	for {
		if wait, ok := c.next(); ok {
			return wait, false
		}
		if c.s.encrypt(c) {
			return 0, true
		}
	}
}

// mpsocRace starts the session's victim and attacker on their own
// tiles. The attacker polls remote Flush+Reload concurrently with the
// victim, producing one probe window per poll — several per round with
// the default polling period.
func mpsocRace(s *session) {
	mesh := noc.MustNew(s.clock, s.params.Mesh)
	v := &nocCore{s: s, mesh: mesh, tile: s.params.VictimTile}
	// Small startup cost: fetching the plaintext over the NoC.
	v.request, v.resp = true, 8
	s.k.Go(v.victimStep)

	a := &remoteAttacker{
		nocCore: nocCore{s: s, mesh: mesh, tile: s.params.AttackerTile},
		// Quarter-round windows keep the union of windows covering any
		// one round narrow enough for candidate elimination (the
		// paper's attacker has the same freedom: its probe is ~3000×
		// faster than a round).
		poll:  s.clock.Cycles(s.vic.RoundCycles()) / 4,
		lines: s.table.LinesIn(s.params.CacheLineBytes),
	}
	s.k.Go(a.step)
}

// remoteAttacker is the MPSoC attacker. Its first pass over the table
// flushes every line; each later pass, a poll period after the last,
// reloads and immediately re-flushes each line, one line at a time.
// Interleaving the flush with the reload keeps the blind window per
// line to roughly one NoC round trip — victim accesses landing inside
// it are lost, which is the platform channel's natural (small)
// false-absence noise. Every flush is a one-way command packet plus the
// flush cost at the cache tile. The meter counts a pass's reloads as
// one observation pass and its flushes as one setup pass.
type remoteAttacker struct {
	nocCore
	poll  sim.Time
	lines int
	// line is the pass's next table line; observing marks every pass
	// but the first, and reloaded a line whose reload has returned.
	line                int
	observing, reloaded bool
	// The window under observation: its label, the lines found, the
	// last reload, and the cache cycles the pass spent.
	last          int
	set           probe.LineSet
	res           cache.Result
	read, flushed uint64
}

func (a *remoteAttacker) step() (sim.Time, bool) {
	for {
		if wait, ok := a.next(); ok {
			return wait, false
		}
		if a.advance() {
			return 0, true
		}
	}
}

// advance queues the attacker's next work and reports whether the
// attacker has stood down.
func (a *remoteAttacker) advance() bool {
	s := a.s
	if a.line == a.lines { // the pass is over
		if a.observing {
			s.meter.Observe(a.read)
		}
		s.meter.Op(a.flushed)
		if a.observing && !s.record(a.last, a.set) {
			return true
		}
		s.open()
		a.wait, a.waiting = a.poll, true
		a.line, a.observing, a.set, a.read, a.flushed = 0, true, 0, 0, 0
		return false
	}
	addr := s.table.Base + uint64(a.line*s.params.CacheLineBytes)
	if a.observing && !a.reloaded {
		if a.line == 0 {
			a.last = s.label()
		}
		a.res = a.reload(addr)
		a.reloaded = true
		return false
	}
	if a.res.Hit {
		a.set = a.set.Add(a.line)
	}
	cycles := s.cache.FlushLine(addr)
	a.request = true
	a.Exec(cycles)
	a.read += a.res.Latency
	a.flushed += cycles
	a.line++
	a.reloaded = false
	return false
}

// RemoteAccessTime reports the modelled cost of one attacker cache
// access (processor + NoC + cache response), the paper's ≈400 ns
// figure, at the platform's clock: a request to the cache tile, the
// cache's latency there, and the response back, on an idle mesh.
func (m *MPSoC) RemoteAccessTime() sim.Time {
	clock := sim.ClockMHz(m.params.ClockMHz)
	cch := sessionCache(m.params.CacheLineBytes)
	res := cch.Access(m.params.TableBase)
	sessionCaches.Put(cch)
	mesh := noc.MustNew(clock, m.params.Mesh)
	arrived := mesh.Send(0, m.params.AttackerTile, m.params.CacheTile, 4)
	return mesh.Send(arrived+clock.Cycles(res.Latency), m.params.CacheTile, m.params.AttackerTile, m.params.CacheLineBytes)
}
