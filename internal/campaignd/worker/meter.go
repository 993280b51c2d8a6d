package worker

import (
	"sync"
	"sync/atomic"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/obs/metrics"
)

// meter is the worker process's local telemetry: a private registry of
// campaignw_* series plus the monotone delta sequence. Every report,
// heartbeat and complete round-trip piggybacks the current cumulative
// snapshot (metrics.Delta), which the coordinator stores keyed by
// worker ID and sequence — idempotent under retried batches and
// journal replays because later deltas replace, never add.
type meter struct {
	reg *metrics.Registry
	seq atomic.Uint64

	jobsDone   *metrics.Counter
	jobsFailed *metrics.Counter
	encs       *metrics.Counter
	batches    *metrics.Counter
	shardsDone *metrics.Counter
	shardsLost *metrics.Counter
	wallMS     *metrics.Histogram

	// Resilience telemetry: coordinator round-trip retries by call
	// class and total backoff wall time, both fed by the client's
	// OnRetry hook — the client is the worker's only retry loop, so
	// they count every retry. They ship in the same cumulative deltas
	// as the job counters, so the coordinator's /api/v1/status can
	// surface fleet retry health.
	retriesBy map[string]*metrics.Counter
	backoffMS *metrics.Counter

	mu sync.Mutex
}

func newMeter() *meter {
	r := metrics.New()
	status := func(s string) *metrics.Counter {
		return r.Counter("campaignw_jobs_total",
			"Jobs this worker executed, by terminal status.", metrics.L("status", s))
	}
	outcome := func(o string) *metrics.Counter {
		return r.Counter("campaignw_shards_total",
			"Shards this worker finished, by outcome.", metrics.L("outcome", o))
	}
	retry := func(class string) *metrics.Counter {
		return r.Counter("campaignw_report_retries_total",
			"Coordinator round-trips retried after a transient failure, by call class.",
			metrics.L("class", class))
	}
	return &meter{
		reg:        r,
		jobsDone:   status("done"),
		jobsFailed: status("failed"),
		encs: r.Counter("campaignw_encryptions_total",
			"Victim encryptions consumed by this worker's jobs."),
		batches: r.Counter("campaignw_batches_total",
			"Result batches reported to the coordinator."),
		shardsDone: outcome("completed"),
		shardsLost: outcome("lost"),
		wallMS: r.WallHistogram("campaignw_job_wall_ms",
			"Per-job wall duration on this worker, milliseconds.", metrics.DurationMSBuckets),
		retriesBy: map[string]*metrics.Counter{
			campaignd.ClassSubmit:    retry(campaignd.ClassSubmit),
			campaignd.ClassLease:     retry(campaignd.ClassLease),
			campaignd.ClassReport:    retry(campaignd.ClassReport),
			campaignd.ClassHeartbeat: retry(campaignd.ClassHeartbeat),
			campaignd.ClassComplete:  retry(campaignd.ClassComplete),
			campaignd.ClassQuery:     retry(campaignd.ClassQuery),
		},
		backoffMS: r.Counter("campaignw_backoff_ms_total",
			"Total wall time this worker spent backing off before retries, milliseconds."),
	}
}

// retry accounts one client-level backoff (call class, wait).
func (m *meter) retry(class string, wait time.Duration) {
	if ctr := m.retriesBy[class]; ctr != nil {
		ctr.Inc()
	} else {
		m.retriesBy[campaignd.ClassQuery].Inc()
	}
	m.backoffMS.Add(uint64(wait / time.Millisecond))
}

// result accounts one executed job.
func (m *meter) result(r campaign.Result) {
	if r.Failed {
		m.jobsFailed.Inc()
	} else {
		m.jobsDone.Inc()
	}
	m.encs.Add(r.Encryptions)
	if r.DurationNS > 0 {
		m.wallMS.Observe(uint64(r.DurationNS) / 1e6)
	}
}

// delta snapshots the cumulative series under a fresh sequence number.
// The mutex orders concurrent senders (the heartbeat goroutine races
// the report path) so a later-sequenced delta can never carry an
// earlier snapshot.
func (m *meter) delta() *metrics.Delta {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &metrics.Delta{Seq: m.seq.Add(1), Series: m.reg.Snapshot()}
}

// summary condenses the counters for the drain log line.
type summary struct {
	Jobs, Failed, Shards, Lost, Retries, BackoffMS uint64
}

func (m *meter) summary() summary {
	var retries uint64
	for _, ctr := range m.retriesBy { //grinchvet:ignore maporder summing counters is order-independent
		retries += ctr.Value()
	}
	return summary{
		Jobs:      m.jobsDone.Value() + m.jobsFailed.Value(),
		Failed:    m.jobsFailed.Value(),
		Shards:    m.shardsDone.Value(),
		Lost:      m.shardsLost.Value(),
		Retries:   retries,
		BackoffMS: m.backoffMS.Value(),
	}
}
