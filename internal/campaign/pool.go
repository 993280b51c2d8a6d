package campaign

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ExecuteJobs runs an explicit job slice on a bounded worker pool, whose
// workers claim the jobs, and hands every completed result to emit. It is the one job pool: Run
// executes through it, and so does the distributed shard worker
// (internal/campaignd/worker). Unlike Run it does not expand a spec,
// journal, or reorder — the caller decides which jobs to run (a shard
// slice, minus the indices its lease says are already done) and what
// to do with each result (batch it to the coordinator, which sorts by
// index at merge).
//
// Semantics:
//
//   - Workers claim jobs in index order from one atomic counter; there
//     is no dispatcher. Each result goes back over a channel buffered
//     to the worker count, so a worker rarely waits to hand one over.
//   - emit is called from a single goroutine, in completion order. The
//     determinism contract is unaffected: each Result is a pure
//     function of its Job (seeds are index-derived), only the emission
//     order varies with scheduling.
//   - A panicking or erroring executor yields a Failed result.
//   - Cancelling ctx stops claiming: a worker checks before every
//     claim, in-flight jobs drain and are still emitted, then
//     ExecuteJobs returns ctx.Err(). An emit error stops claiming the
//     same way and is returned instead.
func ExecuteJobs(ctx context.Context, jobs []Job, exec Executor, workers int, emit func(Result) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	claimCtx, stopClaims := context.WithCancel(ctx)
	defer stopClaims()

	var claimed atomic.Int64
	// Sized to the worker count, so that a worker hands its result over
	// and claims its next job without waiting for the emitting
	// goroutine to be scheduled: table2's jobs take tens of µs.
	resCh := make(chan Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for claimCtx.Err() == nil {
				i := claimed.Add(1) - 1
				if i >= int64(len(jobs)) {
					return
				}
				resCh <- runJob(jobs[i], exec, id)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	var emitErr error
	for r := range resCh {
		if emitErr != nil {
			continue // drain
		}
		if err := emit(r); err != nil {
			emitErr = err
			stopClaims()
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}
