package noc

import (
	"testing"
	"testing/quick"

	"grinch/internal/sim"
)

func testMesh(t *testing.T, w, h int) (*sim.Kernel, *Mesh) {
	t.Helper()
	k := sim.NewKernel()
	m, err := New(k, sim.ClockMHz(50), Config{
		Width: w, Height: h, RouterCycles: 2, LinkCycles: 1, FlitBytes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	bad := []Config{
		{Width: 0, Height: 3, FlitBytes: 4},
		{Width: 3, Height: 0, FlitBytes: 4},
		{Width: 3, Height: 3, FlitBytes: 0},
	}
	for _, cfg := range bad {
		if _, err := New(k, sim.ClockMHz(50), cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRouteXYShape(t *testing.T) {
	_, m := testMesh(t, 3, 3)
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
	_, m := testMesh(t, 3, 3)
	path := m.Route(Coord{1, 1}, Coord{1, 1})
	if len(path) != 1 || path[0] != (Coord{1, 1}) {
		t.Fatalf("self route %v", path)
	}
}

// TestXYNoTurnBack encodes the deadlock-freedom discipline: once a
// packet starts moving in Y it never moves in X again, and it never
// reverses direction on either axis.
func TestXYNoTurnBack(t *testing.T) {
	_, m := testMesh(t, 4, 4)
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
	_, m := testMesh(t, 5, 5)
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
	_, m := testMesh(t, 2, 2)
	expectPanic("Route", func() { m.Route(Coord{0, 0}, Coord{5, 0}) })

	k, m := testMesh(t, 2, 2)
	k.Spawn("s", func(p *sim.Proc) {
		expectPanic("Send", func() { m.Send(p, Coord{0, -1}, Coord{1, 1}, 4) })
	})
	k.Run()
}

func TestSendLatencyNoContention(t *testing.T) {
	k, m := testMesh(t, 3, 3) // 50 MHz: 20 ns/cycle; router 2cy=40ns, link 1cy/flit
	var lat sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		// 4-byte payload = 1 flit. Path (0,0)→(2,0): 2 links, 3 routers.
		lat = m.Send(p, Coord{0, 0}, Coord{2, 0}, 4)
	})
	k.Run()
	// 3 routers × 40ns + 2 links × 1 flit × 20ns = 120 + 40 = 160ns.
	if want := 160 * sim.Nanosecond; lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
}

func TestSendMultiFlitPayload(t *testing.T) {
	k, m := testMesh(t, 2, 1)
	var lat sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		// 10 bytes / 4-byte flits = 3 flits; 1 link, 2 routers.
		lat = m.Send(p, Coord{0, 0}, Coord{1, 0}, 10)
	})
	k.Run()
	// 2 routers × 40ns + 1 link × 3 flits × 20ns = 80 + 60 = 140ns.
	if want := 140 * sim.Nanosecond; lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	k, m := testMesh(t, 2, 1)
	var first, second sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		m.Send(p, Coord{0, 0}, Coord{1, 0}, 4)
		first = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		m.Send(p, Coord{0, 0}, Coord{1, 0}, 4)
		second = p.Now()
	})
	k.Run()
	if second <= first {
		t.Fatalf("contending packets not serialized: %v then %v", first, second)
	}
}

func TestOppositeLinksIndependent(t *testing.T) {
	k, m := testMesh(t, 2, 1)
	var a, b sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		a = m.Send(p, Coord{0, 0}, Coord{1, 0}, 4)
	})
	k.Spawn("b", func(p *sim.Proc) {
		b = m.Send(p, Coord{1, 0}, Coord{0, 0}, 4)
	})
	k.Run()
	if a != b {
		t.Fatalf("opposite-direction transfers interfered: %v vs %v", a, b)
	}
}

func TestRoundTrip(t *testing.T) {
	k, m := testMesh(t, 3, 3)
	var rt sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		rt = m.RoundTrip(p, Coord{0, 0}, Coord{2, 0}, 4, 4, 100*sim.Nanosecond)
	})
	k.Run()
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
		k, m := testMesh(t, dim[0], dim[1])
		tiles := meshTiles(m)
		k.Spawn("s", func(p *sim.Proc) {
			for _, src := range tiles {
				for _, dst := range tiles {
					before := append([]link(nil), m.links...)
					m.Send(p, src, dst, 4)
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
		})
		k.Run()

		// One sender per tile, all at once: packets contend, and the
		// reference model keyed by (from, to) must agree hop for hop.
		k, m = testMesh(t, dim[0], dim[1])
		serial := m.clock.Cycles(m.flits(4) * m.cfg.LinkCycles)
		hop := m.clock.Cycles(m.cfg.RouterCycles)
		tails := map[[2]Coord]sim.Time{}
		for _, src := range tiles {
			k.Spawn(src.String(), func(p *sim.Proc) {
				for _, dst := range tiles {
					start := p.Now()
					path := m.Route(src, dst)
					at := start + hop
					for i := 0; i+1 < len(path); i++ {
						key := [2]Coord{path[i], path[i+1]}
						tails[key] = max(at, tails[key]) + serial
						at = tails[key] + hop
					}
					if lat := m.Send(p, src, dst, 4); lat != at-start {
						t.Errorf("%dx%d %v→%v: latency %v, want %v", dim[0], dim[1], src, dst, lat, at-start)
					}
				}
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
func paperMesh(k *sim.Kernel) *Mesh {
	return MustNew(k, sim.ClockMHz(50), Config{
		Width: 3, Height: 3, RouterCycles: 2, LinkCycles: 1, FlitBytes: 4,
	})
}

// TestSendRoundTripZeroAllocs: a packet walks its hops in place, so
// neither Send nor RoundTrip allocates.
func TestSendRoundTripZeroAllocs(t *testing.T) {
	k := sim.NewKernel()
	m := paperMesh(k)
	var send, rt float64
	k.Spawn("s", func(p *sim.Proc) {
		send = testing.AllocsPerRun(100, func() {
			m.Send(p, Coord{0, 0}, Coord{2, 2}, 8)
		})
		rt = testing.AllocsPerRun(100, func() {
			m.RoundTrip(p, Coord{2, 2}, Coord{1, 1}, 4, 1, 20*sim.Nanosecond)
		})
	})
	k.Run()
	if send != 0 || rt != 0 {
		t.Fatalf("allocations per call: Send %v, RoundTrip %v; want 0", send, rt)
	}
}

// BenchmarkMeshRoundTrip is one remote cache access on the paper mesh
// (attacker tile to cache tile and back), the MPSoC race's unit of
// work.
func BenchmarkMeshRoundTrip(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel()
	m := paperMesh(k)
	k.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			m.RoundTrip(p, Coord{2, 2}, Coord{1, 1}, 4, 1, 20*sim.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}
