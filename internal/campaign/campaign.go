// Package campaign is the experiment-campaign orchestrator: it expands
// a declarative parameter-grid spec into independent jobs, executes them
// on a bounded worker pool, and streams results to pluggable sinks.
//
// The paper's evaluation (Fig. 3, Table I, Table II) is a grid of
// hundreds of independent attack trials. Run serially at full fidelity
// (high trial counts, 1M-encryption budgets) such a sweep takes
// wall-clock hours and loses everything on interruption. This package
// makes the sweep a first-class object:
//
//   - Determinism. Every job derives its RNG seed from the campaign
//     seed and its own stable index (rng.Derive), never from execution
//     order, so results are bit-identical at -workers=1 and -workers=N.
//     Sinks receive results in job-index order regardless of completion
//     order, so serialized output is byte-identical too.
//   - Resumability. Completed jobs are checkpointed to an append-only
//     JSON-lines journal. A re-run against the same journal replays the
//     finished cells into the sinks and executes only the remainder.
//   - Fault isolation. A panicking job is recovered and recorded as a
//     failed cell; a context cancel (SIGINT) stops claiming, drains
//     in-flight workers, and flushes the journal.
//   - Observability. An obs/metrics registry (Options.Registry)
//     receives the grid size, jobs in flight, per-status completion
//     counts, encryption totals and per-job wall durations.
//
// The package is experiment-agnostic: it knows grid axes (platform,
// clock, line size, flush, probe round, trial) but not what a job does.
// internal/experiments supplies the Executor that maps a grid point to
// an attack measurement.
package campaign

import (
	"fmt"

	"grinch/internal/faults"
	"grinch/internal/obs"
	"grinch/internal/rng"
)

// Point is one coordinate of the campaign grid: the experiment kind
// plus the swept parameters. Axes an experiment does not sweep stay at
// their zero value and are omitted from serialized records.
type Point struct {
	Kind       string `json:"kind"`
	Platform   string `json:"platform,omitempty"`
	MHz        uint64 `json:"mhz,omitempty"`
	LineWords  int    `json:"line_words,omitempty"`
	Flush      bool   `json:"flush,omitempty"`
	ProbeRound int    `json:"probe_round,omitempty"`
	// Fault names the fault plan active for this coordinate ("" when
	// the campaign injects no faults).
	Fault string `json:"fault,omitempty"`
	// Trial distinguishes repeated measurements of the same cell.
	Trial int `json:"trial"`
}

// CellKey identifies the grid cell a point belongs to — every axis
// except the trial index. Results sharing a CellKey aggregate into one
// reported table cell.
func (p Point) CellKey() string {
	return fmt.Sprintf("%s|%s|%d|%d|%t|%d|%s",
		p.Kind, p.Platform, p.MHz, p.LineWords, p.Flush, p.ProbeRound, p.Fault)
}

// String renders the non-zero axes compactly for progress and summary
// lines.
func (p Point) String() string {
	s := p.Kind
	if p.Platform != "" {
		s += fmt.Sprintf(" platform=%s", p.Platform)
	}
	if p.MHz != 0 {
		s += fmt.Sprintf(" mhz=%d", p.MHz)
	}
	if p.LineWords != 0 {
		s += fmt.Sprintf(" lw=%d", p.LineWords)
	}
	if p.Flush {
		s += " flush"
	}
	if p.ProbeRound != 0 {
		s += fmt.Sprintf(" pr=%d", p.ProbeRound)
	}
	if p.Fault != "" {
		s += fmt.Sprintf(" fault=%s", p.Fault)
	}
	return s
}

// Job is one schedulable unit: a grid point plus everything needed to
// execute it independently of every other job.
type Job struct {
	// Index is the job's position in the spec's canonical expansion
	// order. It is the journal checkpoint key and the seed-derivation
	// input, so it must be stable across runs of the same spec.
	Index int
	Point Point
	// Seed is rng.Derive(spec.Seed, Index): the job's private RNG root,
	// identical no matter which worker runs the job or when.
	Seed uint64
	// Budget is the per-attack encryption cap inherited from the spec.
	Budget uint64
	// FaultPlan is the structured-fault plan for this job's channel
	// (zero value: no injection). Executors wrap the job's channel in a
	// faults.Injector seeded from the job seed when the plan is
	// non-empty.
	FaultPlan faults.Plan
	// Retry is the transient-failure retry policy executors install on
	// the attack core (zero value: fail fast).
	Retry RetrySpec
	// DeadlinePS bounds the job's simulated clock; 0 means unbounded.
	DeadlinePS uint64
	// ScalarPath forces the attack core's scalar reference pipeline
	// (core.BatchOff) instead of the batched one. The two produce
	// byte-identical results; the flag exists for differential testing
	// and for bisecting suspected batch-path regressions in the field.
	ScalarPath bool
}

// Measurement is the experiment-specific payload of a result. Fields
// are a union over the experiment kinds; unused ones stay zero.
type Measurement struct {
	// Encryptions the attack consumed (budget value when dropped out).
	Encryptions uint64 `json:"encryptions,omitempty"`
	// DroppedOut is set when the attack blew its encryption budget,
	// mirroring the paper's ">1M" cells.
	DroppedOut bool `json:"dropped_out,omitempty"`
	// Correct reports whether a recovered key matched the victim's
	// (full-recovery kinds only).
	Correct bool `json:"correct,omitempty"`
	// Round is the earliest successfully probed round (platform-race
	// kind only).
	Round int `json:"round,omitempty"`

	// Graceful-degradation fields, populated when an attack under fault
	// injection ends without full recovery (or with it, for the
	// fault-accounting counters). Partial marks a structured partial
	// result as opposed to a hard executor error.
	Partial bool `json:"partial,omitempty"`
	// ResolvedRounds counts round keys fully recovered before the attack
	// stopped.
	ResolvedRounds int `json:"resolved_rounds,omitempty"`
	// SegmentsConverged counts converged segments of the last attempted
	// round.
	SegmentsConverged int `json:"segments_converged,omitempty"`
	// Confidence is the mean surviving-line confidence margin of the
	// converged segments.
	Confidence float64 `json:"confidence,omitempty"`
	// Reason classifies why the attack stopped short (core.Reason).
	Reason string `json:"reason,omitempty"`
	// Retries counts transient-failure retries the attack core spent.
	Retries uint64 `json:"retries,omitempty"`
	// Faults counts faults the injector actually fired into the channel.
	Faults uint64 `json:"faults,omitempty"`
}

// Result is one completed job: its coordinates, its measurement, and
// bookkeeping. The same record is the journal entry and the sink
// payload.
type Result struct {
	Job   int    `json:"job"`
	Point Point  `json:"point"`
	Seed  uint64 `json:"seed"`
	Measurement
	// Failed marks a job whose executor returned an error or panicked;
	// Err holds the message. Failed cells are reported, not retried.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"error,omitempty"`
	// DurationNS and Worker describe one particular execution and are
	// the only non-deterministic fields; deterministic sinks omit them.
	DurationNS int64 `json:"duration_ns,omitempty"`
	Worker     int   `json:"worker,omitempty"`
}

// Canonical returns the result with its execution-specific fields
// (DurationNS, Worker) zeroed — the deterministic projection that is a
// pure function of (spec, seed). Everything that serializes results for
// comparison or reproducible output must go through this: JSONLSink
// uses it unless Timing is requested, and the determinism regression
// tests compare canonical forms, so wall-clock readings in the runner
// can never reach deterministic sink bytes.
func (r Result) Canonical() Result {
	r.DurationNS = 0
	r.Worker = 0
	return r
}

// Executor runs one job and returns its measurement. The tracer is the
// job's private event collector (nil unless the run requested tracing);
// executors thread it into the attack pipeline so a traced campaign
// captures every job's internal trajectory without cross-job
// interleaving. Executors must be pure functions of the job (all
// randomness drawn from Job.Seed) for the determinism contract to hold,
// and must be safe for concurrent calls. A panic inside an executor is
// recovered by the runner and recorded as a failed result.
type Executor func(Job, obs.Tracer) (Measurement, error)

// DeriveSeed is the job-seed derivation: Spec.Jobs seeds each job with
// it, and a journal or a coordinator refuses a record whose seed is not
// its job's derived seed. (grinch -json records carry the -seed flag
// itself, not a derived seed.)
func DeriveSeed(campaignSeed uint64, jobIndex int) uint64 {
	return rng.Derive(campaignSeed, uint64(jobIndex))
}
