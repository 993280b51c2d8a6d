// Package noc models the mesh Network-on-Chip of the paper's MPSoC: a
// 2-D mesh of routers with XY deterministic routing (X hops first, then
// Y), per-hop router latency, and per-link serialization so contention
// costs virtual time.
//
// XY routing is deadlock-free on a mesh because the X-then-Y discipline
// orders channel dependencies acyclically; TestXYNoTurnBack encodes that
// property.
package noc

import (
	"fmt"

	"grinch/internal/sim"
)

// Coord is a tile position in the mesh.
type Coord struct {
	X, Y int
}

// String formats a coordinate as "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Config describes a mesh.
type Config struct {
	// Width and Height are the mesh dimensions in tiles.
	Width, Height int
	// RouterCycles is the pipeline latency of one router traversal.
	RouterCycles uint64
	// LinkCycles is the serialization cost of one flit crossing one
	// link; a packet of N flits occupies each link for N×LinkCycles.
	LinkCycles uint64
	// FlitBytes is the payload carried per flit.
	FlitBytes int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 {
		return fmt.Errorf("noc: mesh %dx%d must be at least 1x1", c.Width, c.Height)
	}
	if c.FlitBytes < 1 {
		return fmt.Errorf("noc: FlitBytes = %d must be ≥ 1", c.FlitBytes)
	}
	return nil
}

// Stats accumulates network activity.
type Stats struct {
	Packets   uint64
	Hops      uint64
	TotalTime sim.Time
	WaitTime  sim.Time // time lost to link contention
}

type link struct {
	tail sim.Time // release time of the last packet on this link
}

// Output ports of a router, one per mesh direction. Every link is
// identified by its upstream tile and the port it leaves by.
const (
	portXPlus = iota
	portXMinus
	portYPlus
	portYMinus
	ports
)

// Mesh is the network. One Mesh belongs to one kernel.
type Mesh struct {
	cfg   Config
	k     *sim.Kernel
	clock sim.Clock
	// links[index(from)*ports+port] is the link leaving tile from by
	// port; ports facing off the mesh edge are never used.
	links []link
	stats Stats
}

// New builds a mesh NoC.
func New(k *sim.Kernel, clock sim.Clock, cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Mesh{cfg: cfg, k: k, clock: clock, links: make([]link, cfg.Width*cfg.Height*ports)}, nil
}

// MustNew is New for known-good configurations.
func MustNew(k *sim.Kernel, clock sim.Clock, cfg Config) *Mesh {
	m, err := New(k, clock, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Mesh) index(c Coord) int { return c.Y*m.cfg.Width + c.X }

func (m *Mesh) contains(c Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// checkRoute panics unless both endpoints lie on the mesh.
func (m *Mesh) checkRoute(src, dst Coord) {
	if !m.contains(src) || !m.contains(dst) {
		panic(fmt.Sprintf("noc: route %v→%v outside %dx%d mesh", src, dst, m.cfg.Width, m.cfg.Height))
	}
}

// next takes one XY step from cur towards dst (cur ≠ dst): all X
// movement first, then all Y movement. It returns the downstream tile
// and the output port of cur the hop leaves by.
func next(cur, dst Coord) (Coord, int) {
	switch {
	case cur.X < dst.X:
		cur.X++
		return cur, portXPlus
	case cur.X > dst.X:
		cur.X--
		return cur, portXMinus
	case cur.Y < dst.Y:
		cur.Y++
		return cur, portYPlus
	default:
		cur.Y--
		return cur, portYMinus
	}
}

// Route returns the XY path from src to dst, inclusive of both
// endpoints: all X movement first, then all Y movement.
func (m *Mesh) Route(src, dst Coord) []Coord {
	m.checkRoute(src, dst)
	path := make([]Coord, 1, m.Hops(src, dst)+1)
	path[0] = src
	for cur := src; cur != dst; {
		cur, _ = next(cur, dst)
		path = append(path, cur)
	}
	return path
}

// Hops returns the hop count (links traversed) between two tiles.
func (m *Mesh) Hops(src, dst Coord) int {
	dx := src.X - dst.X
	if dx < 0 {
		dx = -dx
	}
	dy := src.Y - dst.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// flits returns how many flits a payload needs (minimum 1, for the
// header).
func (m *Mesh) flits(payloadBytes int) uint64 {
	n := uint64(1)
	if payloadBytes > 0 {
		n = uint64((payloadBytes + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes)
	}
	return n
}

// Send transports a packet from src to dst, blocking the calling process
// until the tail flit arrives. It returns the end-to-end latency.
// Store-and-forward at packet granularity: each link is held for the
// whole packet, which upper-bounds a wormhole router and keeps the
// model deterministic. The hops are walked in place, so a packet
// allocates nothing.
func (m *Mesh) Send(p *sim.Proc, src, dst Coord, payloadBytes int) sim.Time {
	m.checkRoute(src, dst)
	start := p.Now()
	nflits := m.flits(payloadBytes)
	serial := m.clock.Cycles(nflits * m.cfg.LinkCycles)
	hop := m.clock.Cycles(m.cfg.RouterCycles)

	t := start + hop // source router traversal
	for cur := src; cur != dst; {
		nxt, port := next(cur, dst)
		l := &m.links[m.index(cur)*ports+port]
		grant := t
		if l.tail > grant {
			grant = l.tail
		}
		m.stats.WaitTime += grant - t
		l.tail = grant + serial
		t = l.tail + hop // downstream router traversal
		m.stats.Hops++
		cur = nxt
	}
	m.stats.Packets++
	m.stats.TotalTime += t - start
	p.WaitUntil(t)
	return t - start
}

// RoundTrip sends a request of reqBytes from src to dst and a response
// of respBytes back, blocking until the response arrives; remote
// processing time at dst is added between the two legs. This is the
// shape of a remote cache access from a tile (the paper's ~400 ns
// "processor delay, NoC latency and cache memory response time").
func (m *Mesh) RoundTrip(p *sim.Proc, src, dst Coord, reqBytes, respBytes int, processing sim.Time) sim.Time {
	start := p.Now()
	m.Send(p, src, dst, reqBytes)
	if processing > 0 {
		p.Wait(processing)
	}
	m.Send(p, dst, src, respBytes)
	return p.Now() - start
}
