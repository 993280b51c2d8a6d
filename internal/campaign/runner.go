package campaign

import (
	"context"
	"fmt"
	"runtime"
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

// Run expands spec into jobs, executes them on a bounded worker pool,
// and streams the results to the sinks in job-index order.
//
// Determinism: each job's seed is derived from (spec.Seed, job index),
// so the result of every job — and, because delivery is reordered to
// index order, the byte output of every deterministic sink — is
// identical for any worker count and any scheduling.
//
// Cancellation: when ctx is cancelled, dispatch stops, in-flight jobs
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

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

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

	jobCh := make(chan Job)
	resCh := make(chan tracedResult)

	// Dispatcher: feeds pending jobs until done or cancelled.
	go func() {
		defer close(jobCh)
		for _, j := range pending {
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: execute jobs, recovering per-job panics.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for job := range jobCh {
				meter.inFlight.Add(1)
				var buf *obs.Buffer
				var tr obs.Tracer
				if opts.Trace != nil {
					buf = &obs.Buffer{Job: job.Index}
					tr = buf
				}
				res := runJob(job, exec, id, tr)
				meter.inFlight.Add(-1)
				var events []obs.Event
				if buf != nil {
					events = buf.Events
				}
				resCh <- tracedResult{res, events}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	// Collector: journal in completion order, deliver to sinks in
	// job-index order via a reorder buffer pre-seeded with the
	// journal-replayed results (deliver consumes the stash, so count
	// the resumed jobs first).
	skipped := len(prior)
	stash := prior
	evStash := map[int][]obs.Event{}
	next := 0
	var sinkErr error
	deliver := func() {
		for sinkErr == nil {
			r, ok := stash[next]
			if !ok {
				return
			}
			delete(stash, next)
			if err := sinks.Write(r); err != nil {
				sinkErr = fmt.Errorf("campaign: sink write: %w", err)
				return
			}
			if evs, ok := evStash[next]; ok {
				delete(evStash, next)
				if err := opts.Trace.WriteEvents(evs); err != nil {
					sinkErr = fmt.Errorf("campaign: trace write: %w", err)
					return
				}
			}
			next++
		}
	}
	deliver()

	rep := Report{Spec: spec, Total: len(jobs), Skipped: skipped, FailedReplayed: failedReplayed}
	var journalErr error
	for tr := range resCh {
		res := tr.Result
		meter.finished(res)
		rep.Executed++
		if res.Failed {
			rep.Failed++
		}
		rep.Encryptions += res.Encryptions
		if journal != nil {
			if err := journal.Append(res); err != nil && journalErr == nil {
				journalErr = err
			}
		}
		stash[res.Job] = res
		if len(tr.events) > 0 {
			evStash[res.Job] = tr.events
		}
		deliver()
	}

	rep.Delivered = next
	rep.Elapsed = time.Since(start) //grinchvet:ignore wallclock operator telemetry, not part of sink bytes
	closeErr := sinks.Close()

	switch {
	case ctx.Err() != nil:
		return rep, ctx.Err()
	case sinkErr != nil:
		return rep, sinkErr
	case journalErr != nil:
		return rep, journalErr
	case closeErr != nil:
		return rep, closeErr
	}
	return rep, nil
}

// tracedResult pairs a completed job with the events its private
// tracer buffered (nil when tracing is off).
type tracedResult struct {
	Result
	events []obs.Event
}

// runJob executes one job, converting errors and panics into failed
// results and stamping the execution metadata.
func runJob(job Job, exec Executor, worker int, tracer obs.Tracer) (res Result) {
	start := time.Now() //grinchvet:ignore wallclock Result.DurationNS is excluded from canonical sink output (see Result.Canonical)
	res = Result{Job: job.Index, Point: job.Point, Seed: job.Seed, Worker: worker}
	defer func() {
		if r := recover(); r != nil {
			res.Failed = true
			res.Err = fmt.Sprintf("panic: %v", r)
		}
		res.DurationNS = time.Since(start).Nanoseconds() //grinchvet:ignore wallclock timing metadata, excluded from canonical sink output
	}()
	m, err := exec(job, tracer)
	if err != nil {
		res.Failed = true
		res.Err = err.Error()
		return res
	}
	res.Measurement = m
	return res
}
