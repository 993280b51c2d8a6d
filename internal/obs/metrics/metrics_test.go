package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationMSBuckets)
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(1)
	h.Observe(10)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "jobs", L("status", "done"))
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	h := r.Histogram("lat", "", []uint64{10, 100, 1000})
	for _, v := range []uint64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	s, ok := Find(snap, "lat")
	if !ok {
		t.Fatal("lat series missing")
	}
	// Bounds inclusive: 1,10 → bucket0; 11,100 → bucket1; 5000 → +Inf.
	want := []uint64{2, 2, 0, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
		}
	}
	if s.Sum != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d, want 5", s.Count())
	}
}

func TestResolveSameInstrument(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1")) // label order irrelevant
	if a != b {
		t.Fatal("same (name, labels) must resolve to the same instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instruments not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() []Series {
		r := New()
		r.Counter("b_total", "help b", L("x", "2")).Add(2)
		r.Counter("b_total", "help b", L("x", "1")).Add(1)
		r.Counter("a_total", "help a").Add(7)
		r.Histogram("h", "", []uint64{1, 2}).Observe(2)
		r.WallHistogram("wall_ms", "", DurationMSBuckets).Observe(123)
		return r.Snapshot()
	}
	j1, _ := json.Marshal(build())
	j2, _ := json.Marshal(build())
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	det := Deterministic(build())
	for _, s := range det {
		if s.Wall {
			t.Fatalf("wall series %s survived Deterministic", s.Name)
		}
	}
	if len(det) != len(build())-1 {
		t.Fatalf("Deterministic dropped %d series, want 1", len(build())-len(det))
	}
}

func TestSnapshotRace(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("races_total", "", L("g", fmt.Sprint(i%2)))
			h := r.Histogram("race_hist", "", ObservationBuckets)
			for n := 0; n < 1000; n++ {
				c.Inc()
				h.Observe(uint64(n))
				if n%100 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total uint64
	for _, s := range snap {
		if s.Name == "races_total" {
			total += s.Value
		}
	}
	if total != 8000 {
		t.Fatalf("counter total = %d, want 8000", total)
	}
	if s, _ := Find(snap, "race_hist"); s.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count())
	}
}

func TestQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q", "", []uint64{10, 20, 30, 40})
	// 100 observations uniform over buckets: 25 in each of the 4.
	for b := 0; b < 4; b++ {
		for i := 0; i < 25; i++ {
			h.Observe(uint64(b*10 + 5))
		}
	}
	s, _ := Find(r.Snapshot(), "q")
	if p50 := s.Quantile(0.50); p50 < 15 || p50 > 25 {
		t.Fatalf("p50 = %v, want ~20", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 35 || p99 > 40 {
		t.Fatalf("p99 = %v, want ~40", p99)
	}
	// Overflow clamps to the last bound.
	h2 := r.Histogram("q2", "", []uint64{10})
	h2.Observe(1000)
	s2, _ := Find(r.Snapshot(), "q2")
	if got := s2.Quantile(0.5); got != 10 {
		t.Fatalf("overflow quantile = %v, want 10", got)
	}
	if (Series{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestSum(t *testing.T) {
	a := []Series{
		{Name: "jobs_total", Kind: KindCounter, Value: 3},
		{Name: "lat", Kind: KindHistogram, Bounds: []uint64{10, 20}, Counts: []uint64{1, 2, 0}, Sum: 40},
	}
	b := []Series{
		{Name: "jobs_total", Kind: KindCounter, Value: 4},
		{Name: "lat", Kind: KindHistogram, Bounds: []uint64{10, 20}, Counts: []uint64{0, 1, 1}, Sum: 60},
		{Name: "extra", Kind: KindGauge, Gauge: -2},
	}
	m := Sum(a, b)
	if s, _ := Find(m, "jobs_total"); s.Value != 7 {
		t.Fatalf("summed counter = %d, want 7", s.Value)
	}
	if s, _ := Find(m, "lat"); s.Counts[0] != 1 || s.Counts[1] != 3 || s.Counts[2] != 1 || s.Sum != 100 {
		t.Fatalf("summed histogram = %+v", s)
	}
	if s, _ := Find(m, "extra"); s.Gauge != -2 {
		t.Fatalf("gauge lost: %+v", s)
	}
	// Sum must not mutate its inputs' bucket slices.
	if a[1].Counts[1] != 2 {
		t.Fatal("Sum mutated input")
	}
}

func TestTotal(t *testing.T) {
	series := []Series{
		{Name: "jobs_total", Kind: KindCounter, Value: 3, Labels: []Label{L("c", "a"), L("status", "done")}},
		{Name: "jobs_total", Kind: KindCounter, Value: 4, Labels: []Label{L("c", "b"), L("status", "done")}},
		{Name: "jobs_total", Kind: KindCounter, Value: 5, Labels: []Label{L("c", "b"), L("status", "failed")}},
		{Name: "lat", Kind: KindHistogram, Bounds: []uint64{10}, Counts: []uint64{1, 2}, Sum: 40, Labels: []Label{L("shard", "0")}},
		{Name: "lat", Kind: KindHistogram, Bounds: []uint64{10}, Counts: []uint64{3, 0}, Sum: 9, Labels: []Label{L("shard", "1")}},
		{Name: "up", Kind: KindGauge, Gauge: -2},
	}
	if s := Total(series, "jobs_total"); s.Value != 12 || s.Labels != nil {
		t.Fatalf("Total(jobs_total) = %+v, want 12 unlabeled", s)
	}
	if s := Total(series, "jobs_total", L("status", "done")); s.Value != 7 {
		t.Fatalf("Total(jobs_total, status=done) = %d, want 7", s.Value)
	}
	if s := Total(series, "lat"); s.Count() != 6 || s.Sum != 49 || s.Counts[0] != 4 {
		t.Fatalf("Total(lat) = %+v", s)
	}
	if s := Total(series, "up"); s.Gauge != -2 {
		t.Fatalf("Total(up) = %+v", s)
	}
	if s := Total(series, "missing"); s.Name != "" || s.Value != 0 {
		t.Fatalf("Total of no match = %+v, want the zero Series", s)
	}
	if series[3].Labels == nil || series[3].Counts[0] != 1 {
		t.Fatal("Total mutated its input")
	}
}

func TestStoreIdempotence(t *testing.T) {
	st := NewStore()
	d := Delta{Seq: 1, Series: []Series{{Name: "w_jobs_total", Kind: KindCounter, Value: 10}}}
	if !st.Apply("w1", d) {
		t.Fatal("first apply must be fresh")
	}
	// Same delta replayed (journal replay / retried batch): ignored.
	if st.Apply("w1", d) {
		t.Fatal("replayed delta must be stale")
	}
	if st.Apply("w1", Delta{Seq: 0}) {
		t.Fatal("older delta must be stale")
	}
	if s, _ := Find(st.Merged(), "w_jobs_total"); s.Value != 10 {
		t.Fatalf("merged = %d, want 10", s.Value)
	}
	// A newer cumulative replaces wholesale — no double counting.
	st.Apply("w1", Delta{Seq: 2, Series: []Series{{Name: "w_jobs_total", Kind: KindCounter, Value: 15}}})
	if s, _ := Find(st.Merged(), "w_jobs_total"); s.Value != 15 {
		t.Fatalf("merged after update = %d, want 15", s.Value)
	}
	// Second source sums.
	st.Apply("w2", Delta{Seq: 1, Series: []Series{{Name: "w_jobs_total", Kind: KindCounter, Value: 5}}})
	if s, _ := Find(st.Merged(), "w_jobs_total"); s.Value != 20 {
		t.Fatalf("merged two sources = %d, want 20", s.Value)
	}
	if got := st.Sources(); len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("sources = %v", got)
	}
}

func TestWithLabel(t *testing.T) {
	in := []Series{{Name: "x_total", Kind: KindCounter, Value: 1, Labels: []Label{L("z", "9")}}}
	out := WithLabel(in, "worker", "w1")
	if len(out[0].Labels) != 2 || out[0].Labels[0] != L("worker", "w1") || out[0].Labels[1] != L("z", "9") {
		t.Fatalf("labels = %v", out[0].Labels)
	}
	if len(in[0].Labels) != 1 {
		t.Fatal("WithLabel mutated input")
	}
}

func TestWriteProm(t *testing.T) {
	r := New()
	r.Counter("grinch_jobs_total", "Jobs accounted.", L("status", "done")).Add(12)
	r.Counter("grinch_jobs_total", "Jobs accounted.", L("status", "failed")).Add(3)
	r.Gauge("grinch_depth", "Queue depth.").Set(-4)
	h := r.Histogram("grinch_lat_ms", "Latency.", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# HELP grinch_depth Queue depth.",
		"# TYPE grinch_depth gauge",
		"grinch_depth -4",
		"# HELP grinch_jobs_total Jobs accounted.",
		"# TYPE grinch_jobs_total counter",
		`grinch_jobs_total{status="done"} 12`,
		`grinch_jobs_total{status="failed"} 3`,
		"# HELP grinch_lat_ms Latency.",
		"# TYPE grinch_lat_ms histogram",
		`grinch_lat_ms_bucket{le="10"} 1`,
		`grinch_lat_ms_bucket{le="100"} 2`,
		`grinch_lat_ms_bucket{le="+Inf"} 3`,
		"grinch_lat_ms_sum 5055",
		"grinch_lat_ms_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Byte-determinism: render twice.
	var buf2 bytes.Buffer
	WriteProm(&buf2, r.Snapshot())
	if buf.String() != buf2.String() {
		t.Fatal("exposition not byte-deterministic")
	}
}

func TestPromEscaping(t *testing.T) {
	series := []Series{{
		Name: "esc", Kind: KindCounter, Value: 1,
		Help:   "line1\nline2 \\ backslash",
		Labels: []Label{L("p", `a"b\c`+"\n")},
	}}
	var buf bytes.Buffer
	if err := WriteProm(&buf, series); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `# HELP esc line1\nline2 \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, `esc{p="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped:\n%s", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(4, 4, 3)
	want := []uint64{4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
