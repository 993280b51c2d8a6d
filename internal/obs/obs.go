// Package obs is the attack pipeline's observability layer: a
// deterministic, zero-cost-when-disabled event-tracing subsystem.
//
// The paper's core results (Fig. 3, Tables I–II) are convergence
// curves — how the surviving candidate set shrinks per encryption — but
// an attack run that only reports its final Encryptions total is a
// black box when it converges slowly, stalls, or disagrees with the
// paper. Tracing records the internal trajectory as a stream of typed
// events: encryption boundaries, probe observations, candidate-set
// updates, segment recoveries, cache activity snapshots and simulated
// time, each stamped with the channel's encryption counter.
//
// Design rules:
//
//   - Nil-safe. Emitting components hold a Tracer field that defaults
//     to nil; every emission site is guarded by a nil check, so an
//     untraced hot path pays one predictable branch and nothing else
//     (BenchmarkAttackNilTracer pins this at the attack level).
//   - Deterministic. Events carry encryption counters and sim-kernel
//     time, never wall-clock readings, so a traced run is as
//     byte-reproducible as an untraced one: same spec + same seed ⇒
//     byte-identical JSONL event stream for any worker count
//     (TestTraceDeterminism* in this package and internal/campaign).
//   - Ordered. Concurrent campaign workers never share a Tracer; each
//     job records into its own Buffer and the runner flushes buffers to
//     the trace sink in job-index order (the same reorder machinery
//     that makes result sinks deterministic).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Kind discriminates event types. Values are stable: they are the
// "kind" strings of serialized traces and part of the repo's output
// contract.
type Kind string

// The event taxonomy (DESIGN.md §10).
const (
	// KindEncryptionStart/End bracket one victim encryption on the
	// observation channel. Enc is the channel's (1-based) encryption
	// counter.
	KindEncryptionStart Kind = "encryption_start"
	KindEncryptionEnd   Kind = "encryption_end"
	// KindProbeObservation is one probe result consumed by the attack:
	// the observed line set for (Round, Segment) at encryption Enc.
	KindProbeObservation Kind = "probe_observation"
	// KindCandidateUpdate reports the surviving candidate lines for the
	// segment under attack after folding in one observation.
	KindCandidateUpdate Kind = "candidate_update"
	// KindSegmentRecovered marks a segment's elimination converging on
	// a single line.
	KindSegmentRecovered Kind = "segment_recovered"
	// KindCacheSnapshot is a cumulative cache-activity reading
	// (hits/misses/evictions/flushes) from a cache-backed channel.
	KindCacheSnapshot Kind = "cache_snapshot"
	// KindSimTime reports the simulation kernel's virtual clock (in
	// picoseconds) after a platform session — never wall-clock.
	KindSimTime Kind = "sim_time"
	// KindFaultInjected marks one structured fault firing on the
	// observation channel (internal/faults): Fault holds the fault
	// kind, Enc the affected encryption.
	KindFaultInjected Kind = "fault_injected"
	// KindRetry marks the attack core retrying a transient channel
	// failure: Attempt is the retry ordinal (1-based), SimPS the
	// deterministic backoff charged to the simulated clock.
	KindRetry Kind = "retry"
	// KindTargetRestarted marks a per-target elimination restart after
	// exhaustion under noise: Attempt is the restart ordinal and
	// Threshold the relaxed survival threshold the next pass uses.
	KindTargetRestarted Kind = "target_restarted"
)

// Event is one trace record. It is a flat union over the kinds above
// (the same style as campaign.Measurement): fields a kind does not use
// stay zero and are omitted from the serialized form. Every field is a
// pure function of (spec, seed) — wall-clock readings must never be
// stored here (grinchvet's determinism pass covers this package).
type Event struct {
	Kind Kind `json:"kind"`
	// Job is the campaign job index the event belongs to; stamped by
	// the per-job Buffer, zero for single-run traces.
	Job int `json:"job,omitempty"`
	// Enc is the observation channel's encryption counter at emission
	// (1-based; the paper's attack-effort metric).
	Enc uint64 `json:"enc,omitempty"`
	// Cipher labels the victim ("GIFT-64", "GIFT-128", "PRESENT-80").
	Cipher string `json:"cipher,omitempty"`
	// Round is the attacked round-key index; Segment the 4-bit segment
	// under attack.
	Round   int `json:"round,omitempty"`
	Segment int `json:"segment,omitempty"`
	// Lines is the observed probe.LineSet bitmask
	// (probe_observation) or the surviving candidate mask
	// (candidate_update).
	Lines uint64 `json:"lines,omitempty"`
	// Survivors is the surviving candidate-line count;
	// EntropyBits = log2(Survivors) is the residual line-level
	// uncertainty for the segment.
	Survivors   int     `json:"survivors,omitempty"`
	EntropyBits float64 `json:"entropy_bits,omitempty"`
	// Line is the recovered table line (segment_recovered).
	Line int `json:"line,omitempty"`
	// Observations is the per-target elimination count backing the
	// event.
	Observations uint64 `json:"observations,omitempty"`
	// Cache activity counters (cache_snapshot), cumulative for the
	// emitting cache.
	Hits         uint64 `json:"hits,omitempty"`
	Misses       uint64 `json:"misses,omitempty"`
	Evictions    uint64 `json:"evictions,omitempty"`
	Flushes      uint64 `json:"flushes,omitempty"`
	FlushedLines uint64 `json:"flushed_lines,omitempty"`
	// SimPS is the simulation kernel's virtual time in picoseconds
	// (sim_time), or the backoff charged for one retry (retry).
	SimPS uint64 `json:"sim_ps,omitempty"`
	// Fault is the structured-fault kind that fired (fault_injected).
	Fault string `json:"fault,omitempty"`
	// Attempt is the retry or restart ordinal, 1-based (retry,
	// target_restarted).
	Attempt int `json:"attempt,omitempty"`
	// Threshold is the relaxed candidate-survival threshold a restarted
	// elimination will use (target_restarted).
	Threshold float64 `json:"threshold,omitempty"`
}

// Tracer receives events. Implementations need not be safe for
// concurrent use: the pipeline guarantees a Tracer is only ever driven
// from one goroutine (campaign workers each get a private Buffer).
//
// A nil Tracer disables tracing; emitting code guards every call with
// `if tr != nil`, which is the entire cost of the disabled path.
type Tracer interface {
	Emit(Event)
}

// Sink persists a completed event batch. The campaign runner calls
// WriteEvents once per job, in strictly ascending job-index order, so
// a deterministic sink's byte output is independent of worker count.
type Sink interface {
	WriteEvents([]Event) error
}

// EntropyBits returns log2(survivors) — the residual uncertainty, in
// bits, of a candidate set of the given size (0 for ≤1 survivor).
func EntropyBits(survivors int) float64 {
	if survivors <= 1 {
		return 0
	}
	if survivors&(survivors-1) == 0 {
		// Exact for powers of two, the common case (line counts).
		return float64(bits.Len(uint(survivors)) - 1)
	}
	return math.Log2(float64(survivors))
}

// Buffer is an in-memory Tracer that stamps every event with a job
// index. One Buffer per campaign job keeps parallel workers from ever
// interleaving events; the runner hands the finished batch to the
// trace sink in job-index order.
type Buffer struct {
	// Job is stamped onto every recorded event.
	Job int
	// Events is the recorded stream, in emission order.
	Events []Event
}

// Emit implements Tracer.
func (b *Buffer) Emit(e Event) {
	e.Job = b.Job
	b.Events = append(b.Events, e)
}

// Writer is a JSONL event sink: one JSON object per line, in emission
// order. It implements both Tracer (for single-run tools that stream
// events straight to a file) and Sink (for the campaign runner's
// batch-per-job delivery). Serialization uses encoding/json over the
// fixed Event struct, so field order — and therefore the byte stream —
// is deterministic.
//
// Errors are sticky: the first write error is retained and reported by
// Flush/Err; subsequent emissions become no-ops. That keeps the Tracer
// interface clean (no error return on the hot path) without losing the
// failure.
type Writer struct {
	bw  *bufio.Writer
	err error
	n   int
}

// NewWriter builds a JSONL event writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Emit implements Tracer.
func (w *Writer) Emit(e Event) {
	if w.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		w.err = err
		return
	}
	b = append(b, '\n')
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return
	}
	w.n++
}

// WriteEvents implements Sink.
func (w *Writer) WriteEvents(events []Event) error {
	for _, e := range events {
		w.Emit(e)
	}
	return w.err
}

// Count returns how many events have been written.
func (w *Writer) Count() int { return w.n }

// Flush drains the buffer and returns the sticky error or the flush
// error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// ReadAll decodes a JSONL event stream (the Writer's output format).
// Unknown fields are rejected so a trace from a future incompatible
// schema fails loudly rather than folding into nonsense.
func ReadAll(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Compile-time checks: Buffer traces, Writer both traces and sinks.
var (
	_ Tracer = (*Buffer)(nil)
	_ Tracer = (*Writer)(nil)
	_ Sink   = (*Writer)(nil)
)
