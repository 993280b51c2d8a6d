package noc

import (
	"testing"
	"testing/quick"

	"grinch/internal/sim"
)

func testMesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := New(sim.ClockMHz(50), Config{
		Width: w, Height: h, RouterCycles: 2, LinkCycles: 1, FlitBytes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 3, FlitBytes: 4},
		{Width: 3, Height: 0, FlitBytes: 4},
		{Width: 3, Height: 3, FlitBytes: 0},
	}
	for _, cfg := range bad {
		if _, err := New(sim.ClockMHz(50), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRouteXYShape(t *testing.T) {
	m := testMesh(t, 3, 3)
	path := m.Route(Coord{0, 0}, Coord{2, 2})
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}}
	if len(path) != len(want) {
		t.Fatalf("path %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	m := testMesh(t, 3, 3)
	path := m.Route(Coord{1, 1}, Coord{1, 1})
	if len(path) != 1 || path[0] != (Coord{1, 1}) {
		t.Fatalf("self route %v", path)
	}
}

// TestXYNoTurnBack encodes the deadlock-freedom discipline: once a
// packet starts moving in Y it never moves in X again, and it never
// reverses direction on either axis.
func TestXYNoTurnBack(t *testing.T) {
	m := testMesh(t, 4, 4)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Coord{int(sx) % 4, int(sy) % 4}
		dst := Coord{int(dx) % 4, int(dy) % 4}
		path := m.Route(src, dst)
		turnedY := false
		var lastDX, lastDY int
		for i := 1; i < len(path); i++ {
			ddx := path[i].X - path[i-1].X
			ddy := path[i].Y - path[i-1].Y
			if ddx != 0 && ddy != 0 {
				return false // diagonal hop
			}
			if ddy != 0 {
				turnedY = true
			}
			if ddx != 0 && turnedY {
				return false // X movement after Y began
			}
			if ddx != 0 && lastDX != 0 && ddx != lastDX {
				return false // X reversal
			}
			if ddy != 0 && lastDY != 0 && ddy != lastDY {
				return false // Y reversal
			}
			if ddx != 0 {
				lastDX = ddx
			}
			if ddy != 0 {
				lastDY = ddy
			}
		}
		return len(path) == m.Hops(src, dst)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsManhattan(t *testing.T) {
	m := testMesh(t, 5, 5)
	if m.Hops(Coord{0, 0}, Coord{3, 4}) != 7 {
		t.Fatal("manhattan distance wrong")
	}
	if m.Hops(Coord{2, 2}, Coord{2, 2}) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestRouteOutsideMeshPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	m := testMesh(t, 2, 2)
	expectPanic("Route", func() { m.Route(Coord{0, 0}, Coord{5, 0}) })
	expectPanic("Send", func() { m.Send(0, Coord{0, -1}, Coord{1, 1}, 4) })
}

func TestSendLatencyNoContention(t *testing.T) {
	m := testMesh(t, 3, 3) // 50 MHz: 20 ns/cycle; router 2cy=40ns, link 1cy/flit
	// 4-byte payload = 1 flit. Path (0,0)→(2,0): 2 links, 3 routers.
	const start = 7 * sim.Nanosecond
	lat := m.Send(start, Coord{0, 0}, Coord{2, 0}, 4) - start
	// 3 routers × 40ns + 2 links × 1 flit × 20ns = 120 + 40 = 160ns.
	if want := 160 * sim.Nanosecond; lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
}

func TestSendMultiFlitPayload(t *testing.T) {
	m := testMesh(t, 2, 1)
	// 10 bytes / 4-byte flits = 3 flits; 1 link, 2 routers.
	lat := m.Send(0, Coord{0, 0}, Coord{1, 0}, 10)
	// 2 routers × 40ns + 1 link × 3 flits × 20ns = 80 + 60 = 140ns.
	if want := 140 * sim.Nanosecond; lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	m := testMesh(t, 2, 1)
	first := m.Send(0, Coord{0, 0}, Coord{1, 0}, 4)
	second := m.Send(0, Coord{0, 0}, Coord{1, 0}, 4)
	if second <= first {
		t.Fatalf("contending packets not serialized: %v then %v", first, second)
	}
}

func TestOppositeLinksIndependent(t *testing.T) {
	m := testMesh(t, 2, 1)
	a := m.Send(0, Coord{0, 0}, Coord{1, 0}, 4)
	b := m.Send(0, Coord{1, 0}, Coord{0, 0}, 4)
	if a != b {
		t.Fatalf("opposite-direction transfers interfered: %v vs %v", a, b)
	}
}

// TestRoundTrip: a request, processing at the far tile, and the
// response sent once it is done — the shape of a remote cache access.
func TestRoundTrip(t *testing.T) {
	m := testMesh(t, 3, 3)
	arrived := m.Send(0, Coord{0, 0}, Coord{2, 0}, 4)
	rt := m.Send(arrived+100*sim.Nanosecond, Coord{2, 0}, Coord{0, 0}, 4)
	// Two 160ns legs + 100ns processing.
	if want := 420 * sim.Nanosecond; rt != want {
		t.Fatalf("round trip %v, want %v", rt, want)
	}
}

// meshTiles lists every tile of m in row-major order.
func meshTiles(m *Mesh) []Coord {
	var tiles []Coord
	for y := 0; y < m.cfg.Height; y++ {
		for x := 0; x < m.cfg.Width; x++ {
			tiles = append(tiles, Coord{x, y})
		}
	}
	return tiles
}

// linkIndex is the flat index of the link from a to its neighbour b.
func (m *Mesh) linkIndex(a, b Coord) int {
	_, port := next(a, b)
	return m.index(a)*ports + port
}

// TestSendWalksRoute: Send's in-place hop walk must cross exactly the
// links of Route(src, dst), and under contention give the same
// per-packet latencies and link release times as store-and-forward
// arithmetic over Route's materialised path — for every ordered tile
// pair on several meshes.
func TestSendWalksRoute(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {3, 3}, {4, 2}} {
		// One sender, packet after packet: the links each Send touches
		// must be exactly those along Route.
		m := testMesh(t, dim[0], dim[1])
		tiles := meshTiles(m)
		var now sim.Time
		for _, src := range tiles {
			for _, dst := range tiles {
				before := append([]link(nil), m.links...)
				now = m.Send(now, src, dst, 4)
				want := map[int]bool{}
				path := m.Route(src, dst)
				for i := 0; i+1 < len(path); i++ {
					want[m.linkIndex(path[i], path[i+1])] = true
				}
				for i := range m.links {
					if changed := m.links[i] != before[i]; changed != want[i] {
						t.Errorf("%dx%d %v→%v: link %d changed=%v, on route=%v", dim[0], dim[1], src, dst, i, changed, want[i])
					}
				}
			}
		}

		// One sender per tile, all at once, each sending its next packet
		// when the last arrives: packets contend, and the reference
		// model keyed by (from, to) must agree hop for hop.
		k := sim.NewKernel()
		m = testMesh(t, dim[0], dim[1])
		serial := m.clock.Cycles(m.flits(4) * m.cfg.LinkCycles)
		hop := m.clock.Cycles(m.cfg.RouterCycles)
		tails := map[[2]Coord]sim.Time{}
		for _, src := range tiles {
			sent := 0
			k.Go(func() (sim.Time, bool) {
				if sent == len(tiles) {
					return 0, true
				}
				dst := tiles[sent]
				sent++
				start := k.Now()
				path := m.Route(src, dst)
				at := start + hop
				for i := 0; i+1 < len(path); i++ {
					key := [2]Coord{path[i], path[i+1]}
					tails[key] = max(at, tails[key]) + serial
					at = tails[key] + hop
				}
				arrived := m.Send(start, src, dst, 4)
				if arrived != at {
					t.Errorf("%dx%d %v→%v: latency %v, want %v", dim[0], dim[1], src, dst, arrived-start, at-start)
				}
				return arrived - start, false
			})
		}
		k.Run()
		used := 0
		for key, tail := range tails {
			if got := m.links[m.linkIndex(key[0], key[1])].tail; got != tail {
				t.Errorf("%dx%d link %v→%v: tail %v, want %v", dim[0], dim[1], key[0], key[1], got, tail)
			}
		}
		for _, l := range m.links {
			if l.tail != 0 {
				used++
			}
		}
		if used != len(tails) {
			t.Errorf("%dx%d: %d links used, want %d", dim[0], dim[1], used, len(tails))
		}
	}
}

// paperMesh is the MPSoC's 3×3 mesh at 50 MHz (soc.DefaultParams).
func paperMesh() *Mesh {
	return MustNew(sim.ClockMHz(50), Config{
		Width: 3, Height: 3, RouterCycles: 2, LinkCycles: 1, FlitBytes: 4,
	})
}

// roundTrip sends a request from src to dst at start and the response
// back once processing is done, returning the response's arrival.
func roundTrip(m *Mesh, start sim.Time, src, dst Coord, reqBytes, respBytes int, processing sim.Time) sim.Time {
	return m.Send(m.Send(start, src, dst, reqBytes)+processing, dst, src, respBytes)
}

// TestSendRoundTripZeroAllocs: a packet walks its hops in place, so
// neither a Send nor a round trip's two legs allocate.
func TestSendRoundTripZeroAllocs(t *testing.T) {
	m := paperMesh()
	var now sim.Time
	send := testing.AllocsPerRun(100, func() {
		now = m.Send(now, Coord{0, 0}, Coord{2, 2}, 8)
	})
	rt := testing.AllocsPerRun(100, func() {
		now = roundTrip(m, now, Coord{2, 2}, Coord{1, 1}, 4, 1, 20*sim.Nanosecond)
	})
	if send != 0 || rt != 0 {
		t.Fatalf("allocations per call: Send %v, round trip %v; want 0", send, rt)
	}
}

// BenchmarkMeshRoundTrip is one remote cache access on the paper mesh
// (attacker tile to cache tile and back), the MPSoC race's unit of
// work.
func BenchmarkMeshRoundTrip(b *testing.B) {
	b.ReportAllocs()
	m := paperMesh()
	var now sim.Time
	for i := 0; i < b.N; i++ {
		now = roundTrip(m, now, Coord{2, 2}, Coord{1, 1}, 4, 1, 20*sim.Nanosecond)
	}
}
