package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
)

// Options configure one campaign run.
type Options struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Sinks receive every result in job-index order. Run calls Begin
	// and Close on them.
	Sinks []Sink
	// Journal is the checkpoint file path; empty disables journaling.
	// If the file already exists for the same spec, its completed jobs
	// are replayed into the sinks and skipped.
	Journal string
	// Registry, if set, receives the run's counters (campaign_*: grid
	// size, jobs in flight, per-status job counts, journal replays,
	// encryption histograms, wall time quarantined separately). Nil
	// disables them at one nil-check per instrument.
	Registry *metrics.Registry
	// Trace, if set, enables event tracing: every job gets a private
	// obs.Buffer (so parallel workers never interleave) and the buffered
	// events reach this sink in job-index order, one WriteEvents call
	// per traced job — byte-deterministic for any worker count. Jobs
	// replayed from the journal were not re-executed and contribute no
	// events.
	Trace obs.Sink
}

// Report summarizes a finished (or interrupted) run.
type Report struct {
	Spec Spec
	// Total is the grid size; Skipped were replayed from the journal;
	// Executed ran this time (Failed of them unsuccessfully).
	Total, Skipped, Executed, Failed int
	// FailedReplayed counts journal-replayed failures — jobs that failed
	// in an earlier run and were not re-executed. A job is counted in
	// Failed or in FailedReplayed, never both, so the run's true failure
	// count is always Failed + FailedReplayed.
	FailedReplayed int
	// Delivered is how many results reached the sinks — the full grid
	// on a completed run, an index-prefix on an interrupted one.
	Delivered int
	// Encryptions consumed by the jobs executed this run.
	Encryptions uint64
	Elapsed     time.Duration
}

// Run expands spec into jobs, executes them on the bounded worker pool
// of ExecuteJobs, and streams the results to the sinks in job-index
// order.
//
// Determinism: each job's seed is derived from (spec.Seed, job index),
// so the result of every job — and, because delivery is reordered to
// index order, the byte output of every deterministic sink — is
// identical for any worker count and any scheduling.
//
// Cancellation: when ctx is cancelled, claiming stops, in-flight jobs
// drain, the journal is flushed, and Run returns the partial report
// with ctx's error. A later Run with the same spec and journal resumes
// where this one stopped.
//
// Panics inside the executor are recovered and recorded as failed
// results; they do not kill the run.
func Run(ctx context.Context, spec Spec, exec Executor, opts Options) (Report, error) {
	start := time.Now() //grinchvet:ignore wallclock Report.Elapsed is operator telemetry, stripped from deterministic sink output
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	spec = spec.normalized()
	jobs := spec.Jobs()

	// Resume: load completed jobs from the journal, if any.
	var journal *Journal
	prior := map[int]Result{}
	if opts.Journal != "" {
		var err error
		journal, prior, err = OpenJournal(opts.Journal, spec)
		if err != nil {
			return Report{}, err
		}
		defer journal.Close()
	}
	pending := make([]Job, 0, len(jobs))
	failedReplayed := 0
	for _, j := range jobs {
		r, done := prior[j.Index]
		if !done {
			pending = append(pending, j)
		} else if r.Failed {
			failedReplayed++
		}
	}
	meter := newRunMeter(opts.Registry)
	meter.begin(len(jobs), len(prior), failedReplayed)

	sinks := multiSink(opts.Sinks)
	if err := sinks.Begin(spec, len(jobs)); err != nil {
		return Report{}, err
	}

	// Collector: journal in completion order, deliver to sinks in
	// job-index order via a reorder buffer pre-seeded with the
	// journal-replayed results (deliver consumes the stash, so count
	// the resumed jobs first). Each traced job's private buffer is
	// parked in events until its result is delivered.
	skipped := len(prior)
	stash := prior
	var evMu sync.Mutex
	events := map[int][]obs.Event{}
	next := 0
	deliver := func() error {
		for {
			r, ok := stash[next]
			if !ok {
				return nil
			}
			delete(stash, next)
			if err := sinks.Write(r); err != nil {
				return fmt.Errorf("campaign: sink write: %w", err)
			}
			evMu.Lock()
			evs := events[next]
			delete(events, next)
			evMu.Unlock()
			if len(evs) > 0 {
				if err := opts.Trace.WriteEvents(evs); err != nil {
					return fmt.Errorf("campaign: trace write: %w", err)
				}
			}
			next++
		}
	}

	// traced runs one job with the in-flight gauge and, when tracing,
	// a private buffer. Its defers run even when exec panics, so failed
	// and panicking jobs keep their events.
	traced := func(job Job, _ obs.Tracer) (Measurement, error) {
		meter.inFlight.Add(1)
		defer meter.inFlight.Add(-1)
		if opts.Trace == nil {
			return exec(job, nil)
		}
		buf := &obs.Buffer{Job: job.Index}
		defer func() {
			evMu.Lock()
			events[job.Index] = buf.Events
			evMu.Unlock()
		}()
		return exec(job, buf)
	}

	rep := Report{Spec: spec, Total: len(jobs), Skipped: skipped, FailedReplayed: failedReplayed}
	// A sink, trace or journal write error stops claiming: the pool
	// drains the jobs in flight and runs no more.
	runErr := deliver()
	if runErr == nil {
		runErr = ExecuteJobs(ctx, pending, traced, opts.Workers, func(res Result) error {
			meter.finished(res)
			rep.Executed++
			if res.Failed {
				rep.Failed++
			}
			rep.Encryptions += res.Encryptions
			if journal != nil {
				if err := journal.Append(res); err != nil {
					return err
				}
			}
			stash[res.Job] = res
			return deliver()
		})
	}

	rep.Delivered = next
	rep.Elapsed = time.Since(start) //grinchvet:ignore wallclock operator telemetry, not part of sink bytes
	closeErr := sinks.Close()

	switch {
	case ctx.Err() != nil:
		return rep, ctx.Err()
	case runErr != nil:
		return rep, runErr
	}
	return rep, closeErr
}

// runJob executes one job untraced, converting errors and panics into
// failed results and stamping the execution metadata.
func runJob(job Job, exec Executor, worker int) (res Result) {
	start := time.Now() //grinchvet:ignore wallclock Result.DurationNS is excluded from canonical sink output (see Result.Canonical)
	res = Result{Job: job.Index, Point: job.Point, Seed: job.Seed, Worker: worker}
	defer func() {
		if r := recover(); r != nil {
			res.Failed = true
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		res.DurationNS = time.Since(start).Nanoseconds() //grinchvet:ignore wallclock timing metadata, excluded from canonical sink output
	}()
	m, err := exec(job, nil)
	if err != nil {
		res.Failed = true
		res.Err = err.Error()
		return res
	}
	res.Measurement = m
	return res
}
