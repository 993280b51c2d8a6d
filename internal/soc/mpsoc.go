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
	m := new(MPSoC)
	m.platform = newPlatform(key, params, m.race)
	return m
}

// nocExecutor charges work to a dedicated core whose memory accesses
// cross the mesh to the shared cache tile and back.
type nocExecutor struct {
	proc  *sim.Proc
	clock sim.Clock
	mesh  *noc.Mesh
	cache *cache.Cache
	tile  noc.Coord
	cchTl noc.Coord
	line  int
}

func (e *nocExecutor) Exec(cycles uint64) { e.proc.Wait(e.clock.Cycles(cycles)) }

func (e *nocExecutor) Access(addr uint64) uint64 {
	// The cache lookup happens at the remote tile; its latency is the
	// "processing" leg of the round trip. State is updated on issue,
	// which preserves access ordering at the µs scale the attack sees.
	res := e.cache.Access(addr)
	before := e.proc.Now()
	e.mesh.RoundTrip(e.proc, e.tile, e.cchTl, 4, e.line, e.clock.Cycles(res.Latency))
	return e.clock.CyclesAt(e.proc.Now() - before)
}

// race spawns the session's victim and attacker on their own tiles.
// The attacker polls remote Flush+Reload concurrently with the victim,
// producing one probe window per poll — several per round with the
// default polling period.
func (m *MPSoC) race(s *session) {
	mesh := noc.MustNew(s.k, s.clock, s.params.Mesh)
	// Quarter-round windows keep the union of windows covering any one
	// round narrow enough for candidate elimination (the paper's
	// attacker has the same freedom: its probe is ~3000× faster than a
	// round).
	poll := s.clock.Cycles(s.vic.RoundCycles()) / 4
	exec := func(p *sim.Proc, tile noc.Coord) *nocExecutor {
		return &nocExecutor{
			proc: p, clock: s.clock, mesh: mesh, cache: s.cache,
			tile: tile, cchTl: s.params.CacheTile,
			line: s.params.CacheLineBytes,
		}
	}

	s.k.Spawn("victim", func(p *sim.Proc) {
		ex := exec(p, s.params.VictimTile)
		// Small startup cost: fetching the plaintext over the NoC.
		mesh.RoundTrip(p, s.params.VictimTile, s.params.CacheTile, 4, 8, 0)
		s.encrypt(ex, s.pt)
	})

	s.k.Spawn("attacker", func(p *sim.Proc) {
		ex := exec(p, s.params.AttackerTile)
		observe := func() probe.LineSet { return m.probeAndFlushRemote(ex) }
		m.flushRemote(ex)
		s.open()
		for {
			p.Wait(poll)
			if !s.window(observe) {
				return
			}
			s.open()
		}
	})
}

// flushRemote flushes every table line over the NoC: each flush is a
// one-way command packet plus the flush cost at the cache tile.
func (m *MPSoC) flushRemote(ex *nocExecutor) {
	lineBytes := ex.cache.Config().LineBytes
	n := m.table.LinesIn(lineBytes)
	var total uint64
	for l := 0; l < n; l++ {
		cycles := ex.cache.FlushLine(m.table.Base + uint64(l*lineBytes))
		ex.mesh.Send(ex.proc, ex.tile, ex.cchTl, 4)
		ex.Exec(cycles)
		total += cycles
	}
	m.meter.Op(total)
}

// probeAndFlushRemote reloads and immediately re-flushes each table
// line over the NoC, one line at a time. Interleaving the flush with
// the reload keeps the blind window per line to roughly one NoC round
// trip — victim accesses landing inside it are lost, which is the
// platform channel's natural (small) false-absence noise. The meter
// counts the reloads as one observation pass and the flushes as one
// setup pass.
func (m *MPSoC) probeAndFlushRemote(ex *nocExecutor) probe.LineSet {
	lineBytes := ex.cache.Config().LineBytes
	n := m.table.LinesIn(lineBytes)
	var set probe.LineSet
	var read, flush uint64
	for l := 0; l < n; l++ {
		addr := m.table.Base + uint64(l*lineBytes)
		res := ex.cache.Access(addr)
		ex.mesh.RoundTrip(ex.proc, ex.tile, ex.cchTl, 4, lineBytes, ex.clock.Cycles(res.Latency))
		if res.Hit {
			set = set.Add(l)
		}
		cycles := ex.cache.FlushLine(addr)
		ex.mesh.Send(ex.proc, ex.tile, ex.cchTl, 4)
		ex.Exec(cycles)
		read += res.Latency
		flush += cycles
	}
	m.meter.Observe(read)
	m.meter.Op(flush)
	return set
}

// RemoteAccessTime reports the modelled cost of one attacker cache
// access (processor + NoC + cache response), the paper's ≈400 ns
// figure, at the platform's clock.
func (m *MPSoC) RemoteAccessTime() sim.Time {
	k := sim.NewKernel()
	clock := sim.ClockMHz(m.params.ClockMHz)
	cch := sessionCache(m.params.CacheLineBytes)
	mesh := noc.MustNew(k, clock, m.params.Mesh)
	var rt sim.Time
	k.Spawn("meter", func(p *sim.Proc) {
		res := cch.Access(m.params.TableBase)
		rt = mesh.RoundTrip(p, m.params.AttackerTile, m.params.CacheTile, 4, m.params.CacheLineBytes, clock.Cycles(res.Latency))
	})
	k.Run()
	sessionCaches.Put(cch)
	return rt
}
