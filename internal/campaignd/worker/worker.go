// Package worker is the pull-based shard executor of the distributed
// campaign service: it leases one shard at a time from a campaignd
// coordinator, executes the shard's jobs on a local bounded pool
// (campaign.ExecuteJobs), streams result batches back, and heartbeats
// to keep the lease alive. Reports are double-buffered: one batch is
// on the wire while the pool fills the next, so a report round trip
// stalls the job slots only when it outlasts a whole batch. The last
// partial batch is reported before the shard's Complete.
//
// The worker has no retry loop of its own: every coordinator call is
// one campaignd.Client call, whose per-class RetryPolicy budget is the
// fleet's only retry loop. Mid-shard reports and heartbeats run under
// the shard's context, so a revoked lease or a stopped shard aborts
// them on the wire; the final batch and Complete run under the
// worker's context. A report or lease that outlives its budget ends
// the shard or the run.
//
// Determinism is inherited, not re-implemented: the worker expands its
// shard's range of the canonical job grid from the spec in its lease
// (campaign.Spec.JobsRange, a pure function of the spec), skips the
// indices the lease reports already done, and every result it computes
// is the same bytes any other node would compute. Crash-safety is the
// coordinator's journal plus this pull loop: a worker that dies
// mid-shard simply stops heartbeating, the lease expires, and the next
// worker resumes the shard where the ingested results end.
package worker

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
)

// Config configures a worker process.
type Config struct {
	// Server is the coordinator's base URL.
	Server string
	// ID is the worker's identity in leases and status displays.
	ID string
	// Exec runs one job (experiments.Execute in production; tests
	// substitute toys). Tracing is not threaded through the distributed
	// path, so Exec always receives a nil tracer.
	Exec campaign.Executor
	// Workers bounds the local pool (0: GOMAXPROCS).
	Workers int
	// Batch is how many results accumulate before a report flush (0:
	// DefaultBatch). Smaller batches lose less to a crash; larger ones
	// amortize round-trips.
	Batch int
	// Poll is the idle sleep between lease attempts when the
	// coordinator has no pending shard (0: DefaultPoll).
	Poll time.Duration
	// Drain, when set, exits the loop cleanly once the coordinator
	// reports every campaign merged. Otherwise the worker keeps
	// polling for future submissions.
	Drain bool
	// Transport, when set, replaces the HTTP transport — the chaos
	// drill hook (cmd/campaignw -chaos wires a chaos.Transport here).
	// Ignored when client is overridden.
	Transport http.RoundTripper
	// Retry overrides the client retry policy (nil: defaults with a
	// jitter seed derived from ID, so a fleet's backoff schedules are
	// decorrelated but per-worker replayable). Its Lease and Report
	// budgets set how long an outage the worker rides out.
	Retry *campaignd.RetryPolicy
	// Logf receives operator log lines; nil discards them.
	Logf func(format string, args ...any)

	// client overrides the HTTP client (tests).
	client *campaignd.Client
}

// Defaults.
const (
	DefaultBatch = 16
	DefaultPoll  = 250 * time.Millisecond
	// minHeartbeatInterval floors the heartbeat ticker: a lease TTL of
	// a few milliseconds must clamp, not panic time.NewTicker.
	minHeartbeatInterval = time.Millisecond
)

// idSeed derives a deterministic jitter seed from the worker identity.
func idSeed(id string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, id)
	return h.Sum64()
}

// Run executes the pull loop until ctx is cancelled, the coordinator
// drains (Config.Drain), or a lease call exhausts the client's lease
// budget. A cancelled context is a clean shutdown: the current
// shard is abandoned un-completed and its lease left to expire (the
// coordinator keeps every result already reported).
func Run(ctx context.Context, cfg Config) error {
	if cfg.Exec == nil {
		return errors.New("worker: Config.Exec is required")
	}
	if cfg.ID == "" {
		return errors.New("worker: Config.ID is required")
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := newMeter()
	client := cfg.client
	if client == nil {
		pol := campaignd.DefaultRetryPolicy()
		if cfg.Retry != nil {
			pol = *cfg.Retry
		}
		if pol.Seed == 0 {
			pol.Seed = idSeed(cfg.ID)
		}
		client = &campaignd.Client{Base: cfg.Server, Retry: &pol}
		if cfg.Transport != nil {
			client.HTTP = &http.Client{Transport: cfg.Transport, Timeout: 2 * campaignd.DefaultCallTimeout}
		}
	}
	if client.OnRetry == nil {
		client.OnRetry = func(class string, attempt int, wait time.Duration, err error) {
			m.retry(class, wait)
			logf("worker %s: %s attempt %d failed (%v); retrying in %s", cfg.ID, class, attempt, err, wait)
		}
	}
	start := time.Now() //grinchvet:ignore wallclock drain-summary telemetry, never reaches result bytes

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Lease(ctx, cfg.ID)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("worker %s: leasing: %w", cfg.ID, err)
		}
		if resp.Lease == nil {
			if cfg.Drain && resp.AllDone {
				sum := m.summary()
				logf("worker %s: coordinator drained; exiting — %d jobs (%d failed) in %d shards (%d lost), %d call retries (%dms backoff), %.1fs wall",
					cfg.ID, sum.Jobs, sum.Failed, sum.Shards, sum.Lost, sum.Retries, sum.BackoffMS,
					time.Since(start).Seconds()) //grinchvet:ignore wallclock drain-summary telemetry
				return nil
			}
			if !campaignd.Sleep(ctx, cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		if err := runShard(ctx, cfg, client, m, logf, resp.Lease); err != nil {
			if errors.Is(err, campaignd.ErrLeaseGone) {
				// The coordinator re-issued the shard (our heartbeats were
				// too late); whatever we reported is kept, the rest is the
				// next holder's problem.
				m.shardsLost.Inc()
				logf("worker %s: lease %s revoked mid-shard; abandoning", cfg.ID, resp.Lease.ID)
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
	}
}

// runShard executes one leased shard: expand its range, skip done,
// execute, batch-report, complete. Every round-trip to the coordinator
// carries the worker's cumulative telemetry delta.
//
// Reports are double-buffered: a full batch goes out on its own
// goroutine while the pool keeps executing into the other buffer, so
// at most one report is in flight and the job slots stall only when a
// second batch fills before the first report returns.
func runShard(ctx context.Context, cfg Config, client *campaignd.Client, m *meter, logf func(string, ...any), l *campaignd.Lease) error {
	if l.TTLMS <= 0 {
		// A non-positive TTL cannot fence anything: refuse the lease
		// loudly instead of dividing it into a panicking ticker.
		return fmt.Errorf("worker %s: lease %s carries invalid ttl_ms %d (must be positive); refusing the shard", cfg.ID, l.ID, l.TTLMS)
	}
	if n := l.Spec.NumJobs(); l.Start < 0 || l.Start > l.End || l.End > n {
		return fmt.Errorf("worker %s: lease %s range [%d,%d) is not a range of the %d-job grid; refusing the shard", cfg.ID, l.ID, l.Start, l.End, n)
	}
	done := make([]bool, l.Len())
	for _, idx := range l.DoneJobs {
		if l.Contains(idx) {
			done[idx-l.Start] = true
		}
	}
	all := l.Spec.JobsRange(l.Start, l.End)
	jobs := all[:0] // filtered in place
	for _, j := range all {
		if !done[j.Index-l.Start] {
			jobs = append(jobs, j)
		}
	}
	logf("worker %s: lease %s: %s %s — %d jobs (%d resumed)", cfg.ID, l.ID, l.Campaign, l.ShardRange, len(jobs), len(l.DoneJobs))

	// Heartbeat at a third of the TTL until the shard is finished. A
	// revoked lease cancels the shard so in-flight jobs stop feeding a
	// dead lease. The interval is floored: a degenerate few-millisecond
	// TTL (stress tests, mis-tuned coordinators) clamps to a spammy but
	// live heartbeat instead of panicking time.NewTicker with a
	// non-positive duration.
	shardCtx, stopShard := context.WithCancelCause(ctx)
	defer stopShard(nil)
	ttl := time.Duration(l.TTLMS) * time.Millisecond
	hbInterval := ttl / 3
	if hbInterval < minHeartbeatInterval {
		hbInterval = minHeartbeatInterval
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(hbInterval)
		defer tick.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-tick.C:
				if err := client.Heartbeat(shardCtx, l.ID, cfg.ID, m.delta()); err != nil {
					if errors.Is(err, campaignd.ErrLeaseGone) {
						stopShard(campaignd.ErrLeaseGone)
						return
					}
					if shardCtx.Err() != nil {
						return
					}
					logf("worker %s: heartbeat: %v", cfg.ID, err)
				}
			}
		}
	}()

	// flush reports one batch in one client call, whose report budget
	// retries transient failures. The server dedupes by job index, so a
	// response lost after the commit costs one duplicate round trip,
	// never a double-count. Batches reported mid-shard run under
	// shardCtx, so a revoked lease or a stopped shard aborts them; the
	// final batch runs under the worker's ctx, since shardCtx is stopped
	// by then.
	flush := func(ctx context.Context, batch []campaign.Result) error {
		if len(batch) == 0 {
			return nil
		}
		if err := client.Report(ctx, l.ID, batch, cfg.ID, m.delta()); err != nil {
			return fmt.Errorf("worker %s: lease %s: flush failed: %w", cfg.ID, l.ID, err)
		}
		m.batches.Inc()
		return nil
	}
	// inflight carries the outcome of the report on the wire (nil: none
	// is). A failed report cancels the shard at once, as a synchronous
	// flush failing inside the pool callback would.
	var inflight chan error
	awaitReport := func() error {
		if inflight == nil {
			return nil
		}
		err := <-inflight
		inflight = nil
		return err
	}
	batch := make([]campaign.Result, 0, cfg.Batch)
	spare := make([]campaign.Result, 0, cfg.Batch)
	execErr := campaign.ExecuteJobs(shardCtx, jobs, cfg.Exec, cfg.Workers, func(r campaign.Result) error {
		m.result(r)
		batch = append(batch, r)
		if len(batch) < cfg.Batch {
			return nil
		}
		if err := awaitReport(); err != nil {
			return err
		}
		out := batch
		batch, spare = spare[:0], out
		inflight = make(chan error, 1)
		go func(ch chan<- error) {
			err := flush(shardCtx, out)
			if err != nil {
				stopShard(err)
			}
			ch <- err
		}(inflight)
		return nil
	})
	reportErr := awaitReport()
	stopShard(nil)
	<-hbDone
	if cause := context.Cause(shardCtx); errors.Is(cause, campaignd.ErrLeaseGone) {
		return campaignd.ErrLeaseGone
	}
	if reportErr != nil {
		return reportErr
	}
	if execErr != nil {
		return execErr
	}
	if err := flush(ctx, batch); err != nil {
		return err
	}
	// Count the shard before snapshotting the delta: the complete
	// round-trip is the worker's last word on this shard, and it may be
	// the last round-trip of the whole run.
	m.shardsDone.Inc()
	if err := client.Complete(ctx, l.ID, cfg.ID, m.delta()); err != nil {
		return err
	}
	logf("worker %s: lease %s complete", cfg.ID, l.ID)
	return nil
}
