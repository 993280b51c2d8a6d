package metrics

import (
	"slices"
	"sort"
	"sync"
)

// Series is one snapshot row: a (name, labels) identity plus the
// kind-specific value. Integer-valued throughout, so serialized
// snapshots of deterministic inputs are byte-identical across runs.
type Series struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	// Wall marks a series fed by wall-clock samples; Deterministic
	// filters these out of snapshot identity.
	Wall bool `json:"wall,omitempty"`
	// Value is the counter total.
	Value uint64 `json:"value,omitempty"`
	// Gauge is the gauge value.
	Gauge int64 `json:"gauge,omitempty"`
	// Bounds/Counts/Sum describe a histogram: Counts has
	// len(Bounds)+1 entries, the last being the +Inf overflow bucket,
	// and Sum is the sum of observed values.
	Bounds []uint64 `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Sum    uint64   `json:"sum,omitempty"`
	// Help is exposition metadata, not wire payload.
	Help string `json:"-"`
}

// Key is the series identity: name plus sorted label signature.
func (s Series) Key() string { return s.Name + "\x00" + labelSig(s.Labels) }

// Count returns a histogram series' total observation count.
func (s Series) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Quantile estimates the q-th quantile (q in [0,1]) of a histogram
// series by linear interpolation within the containing bucket. Values
// in the +Inf overflow bucket clamp to the last finite bound. Returns
// 0 for empty histograms.
func (s Series) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				// Overflow bucket: the true value is above the last
				// bound; clamp rather than extrapolate.
				return float64(s.Bounds[len(s.Bounds)-1])
			}
			lo := 0.0
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			}
			hi := float64(s.Bounds[i])
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*((rank-cum)/float64(c))
		}
		cum = next
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}

// Mean returns a histogram series' mean observed value (0 when empty).
func (s Series) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Deterministic filters wall-quarantined series out: what remains is
// the snapshot's deterministic identity — a pure function of (spec,
// seed) for the simulation-fed instruments in this repository.
func Deterministic(series []Series) []Series {
	out := make([]Series, 0, len(series))
	for _, s := range series {
		if !s.Wall {
			out = append(out, s)
		}
	}
	return out
}

// Sum merges series groups by identity: counters add, gauges add,
// histograms add bucket-wise (identically-bounded histograms only —
// all instruments in this module use the canonical bucket sets, so
// mismatched bounds indicate version skew and the first shape wins).
// The result is sorted by identity.
func Sum(groups ...[]Series) []Series {
	byKey := map[string]*Series{}
	var keys []string
	for _, group := range groups {
		for _, s := range group {
			k := s.Key()
			acc := byKey[k]
			if acc == nil {
				cp := s
				cp.Counts = append([]uint64(nil), s.Counts...)
				byKey[k] = &cp
				keys = append(keys, k)
				continue
			}
			acc.Wall = acc.Wall || s.Wall
			if acc.Help == "" {
				acc.Help = s.Help
			}
			switch acc.Kind {
			case KindCounter:
				acc.Value += s.Value
			case KindGauge:
				acc.Gauge += s.Gauge
			case KindHistogram:
				if boundsEqual(acc.Bounds, s.Bounds) {
					for i := range s.Counts {
						acc.Counts[i] += s.Counts[i]
					}
					acc.Sum += s.Sum
				}
			}
		}
	}
	sort.Strings(keys)
	out := make([]Series, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

// WithLabel returns the series re-labeled with (key, value) added to
// every row — how the coordinator scopes worker series under
// worker="id" before summing across the fleet.
func WithLabel(series []Series, key, value string) []Series {
	out := make([]Series, len(series))
	for i, s := range series {
		cp := s
		cp.Labels = sortLabels(append(append([]Label(nil), s.Labels...), L(key, value)))
		out[i] = cp
	}
	return out
}

// Find returns the first series with the given name and labels
// (subset match on labels), or a zero Series and false.
func Find(series []Series, name string, labels ...Label) (Series, bool) {
	for _, s := range series {
		if s.Name == name && hasLabels(s, labels) {
			return s, true
		}
	}
	return Series{}, false
}

// Total sums every series Find would match — not just the first — into
// one unlabeled series via Sum: counters and gauges add, histograms add
// bucket-wise. No match yields the zero Series.
func Total(series []Series, name string, labels ...Label) Series {
	var match []Series
	for _, s := range series {
		if s.Name == name && hasLabels(s, labels) {
			s.Labels = nil
			match = append(match, s)
		}
	}
	if len(match) == 0 {
		return Series{}
	}
	return Sum(match)[0]
}

// hasLabels reports whether every wanted label is on the series.
func hasLabels(s Series, want []Label) bool {
	for _, w := range want {
		if !slices.Contains(s.Labels, w) {
			return false
		}
	}
	return true
}

// Delta is one worker-telemetry update: the worker's cumulative series
// totals since process start, plus a per-worker monotone sequence
// number. Shipping cumulative totals (not increments) makes
// application idempotent — a retried batch, a dropped response, or a
// journal-replay after a coordinator restart can only re-deliver a
// state the store either already has (Seq ≤ last: ignored) or is
// strictly newer (replaces wholesale, no double-counting).
type Delta struct {
	Seq    uint64   `json:"seq"`
	Series []Series `json:"series,omitempty"`
}

// Store accumulates the latest cumulative Delta per source (worker)
// and merges across sources. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	sources map[string]*sourceEntry
}

type sourceEntry struct {
	seq    uint64
	series []Series
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{sources: map[string]*sourceEntry{}} }

// Apply installs a source's delta, reporting whether it was fresh. A
// delta whose Seq is not greater than the last applied Seq for the
// source is stale (a retried or replayed batch) and ignored.
func (st *Store) Apply(source string, d Delta) bool {
	if st == nil || source == "" {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.sources[source]
	if e == nil {
		e = &sourceEntry{}
		st.sources[source] = e
	} else if d.Seq <= e.seq {
		return false
	}
	e.seq = d.Seq
	e.series = append([]Series(nil), d.Series...)
	return true
}

// Sources lists the known source names, sorted.
func (st *Store) Sources() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.sources))
	for name := range st.sources { //grinchvet:ignore maporder key collection; sorted on the next line
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Source returns the latest series for one source (nil if unknown).
func (st *Store) Source(name string) []Series {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.sources[name]
	if e == nil {
		return nil
	}
	return append([]Series(nil), e.series...)
}

// Merged sums the latest series across every source, with each
// source's rows additionally labeled worker="<source>" preserved as
// given — callers that want per-source attribution label before
// applying. The result is sorted by identity.
func (st *Store) Merged() []Series {
	if st == nil {
		return nil
	}
	groups := make([][]Series, 0)
	for _, name := range st.Sources() {
		groups = append(groups, st.Source(name))
	}
	return Sum(groups...)
}
