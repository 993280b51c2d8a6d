package campaign

import (
	"context"
	"runtime"
	"sync"
)

// ExecuteJobs runs an explicit job slice on a bounded worker pool and
// hands every completed result to emit. It is the one job pool: Run
// executes through it, and so does the distributed shard worker
// (internal/campaignd/worker). Unlike Run it does not expand a spec,
// journal, or reorder — the caller decides which jobs to run (a shard
// slice, minus the indices its lease says are already done) and what
// to do with each result (batch it to the coordinator, which sorts by
// index at merge).
//
// Semantics:
//
//   - emit is called from a single goroutine, in completion order. The
//     determinism contract is unaffected: each Result is a pure
//     function of its Job (seeds are index-derived), only the emission
//     order varies with scheduling.
//   - A panicking or erroring executor yields a Failed result.
//   - Cancelling ctx stops dispatch; in-flight jobs drain and are still
//     emitted, then ExecuteJobs returns ctx.Err(). An emit error stops
//     dispatch the same way and is returned instead.
func ExecuteJobs(ctx context.Context, jobs []Job, exec Executor, workers int, emit func(Result) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dispatchCtx, stopDispatch := context.WithCancel(ctx)
	defer stopDispatch()

	jobCh := make(chan Job)
	resCh := make(chan Result)
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			if dispatchCtx.Err() != nil {
				return // a ready worker must not win the race with a stop
			}
			select {
			case jobCh <- j:
			case <-dispatchCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for job := range jobCh {
				resCh <- runJob(job, exec, id)
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
			stopDispatch()
		}
	}
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}
