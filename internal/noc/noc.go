// Package noc models the mesh Network-on-Chip of the paper's MPSoC: a
// 2-D mesh of routers with XY deterministic routing (X hops first, then
// Y), per-hop router latency, and per-link serialization so contention
// costs virtual time. The mesh holds only link state and no kernel:
// Send reserves a packet's links at its start time and returns its
// arrival, and the sender waits that out itself, so a round trip is a
// request, the far tile's processing and a response sent once the
// request has arrived.
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

// Mesh is the network. It holds only link state: a sender asks Send when
// its packet arrives and waits that long on its own.
type Mesh struct {
	cfg   Config
	clock sim.Clock
	// links[index(from)*ports+port] is the link leaving tile from by
	// port; ports facing off the mesh edge are never used.
	links []link
}

// New builds a mesh NoC.
func New(clock sim.Clock, cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Mesh{cfg: cfg, clock: clock, links: make([]link, cfg.Width*cfg.Height*ports)}, nil
}

// MustNew is New for known-good configurations.
func MustNew(clock sim.Clock, cfg Config) *Mesh {
	m, err := New(clock, cfg)
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

// Send transports a packet from src to dst that leaves at start, which
// must be the current time of the mesh's simulation, and returns the
// time its tail flit arrives. Store-and-forward at packet granularity:
// each link is held for the whole packet, which upper-bounds a wormhole
// router and keeps the model deterministic. The links are reserved as
// the packet is sent, so packets sent in simulation order contend in
// that order. The hops are walked in place, so a packet allocates
// nothing.
func (m *Mesh) Send(start sim.Time, src, dst Coord, payloadBytes int) sim.Time {
	m.checkRoute(src, dst)
	nflits := m.flits(payloadBytes)
	serial := m.clock.Cycles(nflits * m.cfg.LinkCycles)
	hop := m.clock.Cycles(m.cfg.RouterCycles)

	t := start + hop // source router traversal
	for cur := src; cur != dst; {
		nxt, port := next(cur, dst)
		l := &m.links[m.index(cur)*ports+port]
		l.tail = max(t, l.tail) + serial
		t = l.tail + hop // downstream router traversal
		cur = nxt
	}
	return t
}
