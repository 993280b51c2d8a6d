package campaignd

import (
	"net/http"

	"grinch/internal/obs/metrics"
)

// This file is the coordinator's fleet-metrics surface: the Prometheus
// exposition (GET /metrics) and the machine-readable status
// (GET /api/v1/status). The job counters in the exposition derive from
// the shard line stores — the authoritative, deduplicated,
// journal-recovered store the merge itself reads — so for a merged
// campaign, campaignd_jobs_done_total exactly equals the merged JSONL
// row count (the CI reconciliation in scripts/ci_distributed.sh pins
// this). Worker-shipped telemetry deltas are aggregated per worker and
// additionally exposed with a worker="<id>" label.

// PromSnapshot assembles every series the coordinator exposes: its own
// state-derived counters and gauges, the per-shard ingestion-latency
// histograms, and the latest per-worker telemetry labeled worker="id".
// The result is sorted by identity, ready for metrics.WriteProm.
func (s *Server) PromSnapshot() []metrics.Series {
	s.mu.Lock()
	s.sweepLocked()
	synth := s.synthSeriesLocked()
	s.mu.Unlock()

	groups := [][]metrics.Series{synth, s.reg.Snapshot()}
	for _, src := range s.telemetry.Sources() {
		groups = append(groups, metrics.WithLabel(s.telemetry.Source(src), "worker", src))
	}
	return metrics.Sum(groups...)
}

// synthSeriesLocked derives the coordinator's own series from its
// authoritative state under mu.
func (s *Server) synthSeriesLocked() []metrics.Series {
	counter := func(name, help string, v uint64, labels ...metrics.Label) metrics.Series {
		return metrics.Series{Name: name, Kind: metrics.KindCounter, Value: v, Help: help, Labels: labels}
	}
	gauge := func(name, help string, v int64, labels ...metrics.Label) metrics.Series {
		return metrics.Series{Name: name, Kind: metrics.KindGauge, Gauge: v, Help: help, Labels: labels}
	}
	var out []metrics.Series
	running, merged := 0, 0
	for _, id := range s.order {
		c := s.campaigns[id]
		if c.merged {
			merged++
		} else {
			running++
		}
		var done, failed, encs uint64
		shardsBy := map[string]int64{ShardPending: 0, ShardLeased: 0, ShardDone: 0}
		for _, sh := range c.shards {
			done += uint64(sh.done)
			failed += uint64(sh.failed)
			encs += sh.encs
			shardsBy[sh.state]++
		}
		cl := metrics.L("campaign", id)
		out = append(out,
			gauge("campaignd_jobs", "Campaign grid size.", int64(c.jobs), cl),
			counter("campaignd_jobs_done_total", "Results ingested into the authoritative shard store (deduplicated; reconciles with merged output rows).", done, cl),
			counter("campaignd_jobs_failed_total", "Ingested results whose job failed.", failed, cl),
			counter("campaignd_encryptions_total", "Victim encryptions summed over ingested results.", encs, cl),
		)
		for _, state := range []string{ShardPending, ShardLeased, ShardDone} {
			out = append(out, gauge("campaignd_shards", "Shards by state.", shardsBy[state], cl, metrics.L("state", state)))
		}
	}
	out = append(out,
		gauge("campaignd_campaigns", "Campaigns by state.", int64(running), metrics.L("state", CampaignRunning)),
		gauge("campaignd_campaigns", "Campaigns by state.", int64(merged), metrics.L("state", CampaignMerged)),
		gauge("campaignd_ingest_inflight", "Result-ingest requests currently in flight.", s.ingestInflight.Load()),
		gauge("campaignd_leases_active", "Live leases.", int64(len(s.leases))),
		gauge("campaignd_workers_seen", "Distinct workers ever seen.", int64(len(s.workers))),
	)
	return out
}

// suggestedShardSize derives a shard-size hint from the observed
// per-job latency histogram: a shard should take roughly four lease
// TTLs of wall time — long enough to amortize lease round-trips, short
// enough that a lost node costs little. Returns 0 until
// ingestion-latency data exists.
func (s *Server) suggestedShardSize(latMS metrics.Series) int {
	if latMS.Count() == 0 {
		return 0
	}
	// Sub-millisecond jobs round every observation to zero; clamp the
	// mean to the histogram's resolution so the hint stays finite
	// instead of reporting "no data" for a fleet that is simply fast.
	meanMS := max(latMS.Mean(), 1)
	n := int(4 * float64(s.opts.LeaseTTL.Milliseconds()) / meanMS)
	return min(max(n, 1), 100000)
}

// FleetStatus is the machine-readable coordinator status: the counter
// snapshot plus per-campaign shard detail (with latency quantiles),
// the worker directory, and the fleet's retry health.
type FleetStatus struct {
	MetricsSnapshot
	Campaigns []CampaignStatus `json:"campaigns"`
	Workers   []WorkerStatus   `json:"workers,omitempty"`
	Retry     RetryHealth      `json:"retry"`
}

// RetryHealth aggregates the fleet's resilience telemetry: how often
// the coordinator shed ingest load, and how much retrying and backing
// off the workers have reported (summed across the fleet from their
// heartbeat deltas). A healthy quiet fleet is all zeros; a rising
// retries count with flat shed points at the network, shed points at
// coordinator overload.
type RetryHealth struct {
	ShedTotal             uint64 `json:"shed_total"`
	WorkerRetriesTotal    uint64 `json:"worker_retries_total"`
	WorkerBackoffMSTotal  uint64 `json:"worker_backoff_ms_total"`
	WorkerShardsLostTotal uint64 `json:"worker_shards_lost_total"`
}

// retryHealth folds the fleet-wide retry telemetry from the worker
// delta store plus the coordinator's shed counter.
func (s *Server) retryHealth() RetryHealth {
	merged := s.telemetry.Merged()
	return RetryHealth{
		ShedTotal:             s.shed.Value(),
		WorkerRetriesTotal:    metrics.Total(merged, "campaignw_report_retries_total").Value,
		WorkerBackoffMSTotal:  metrics.Total(merged, "campaignw_backoff_ms_total").Value,
		WorkerShardsLostTotal: metrics.Total(merged, "campaignw_shards_total", metrics.L("outcome", "lost")).Value,
	}
}

// WorkerStatus is one worker's row in the fleet status.
type WorkerStatus struct {
	ID                 string  `json:"id"`
	LastSeenAgoSeconds float64 `json:"last_seen_ago_seconds"`
	Leases             int     `json:"leases"`
	Results            int     `json:"results"`
}

// FleetStatus returns the current fleet status.
func (s *Server) FleetStatus() FleetStatus {
	fs := FleetStatus{MetricsSnapshot: s.Metrics(), Retry: s.retryHealth()}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		fs.Campaigns = append(fs.Campaigns, s.statusLocked(s.campaigns[id], true))
	}
	now := s.now()
	for _, id := range sortedWorkerIDs(s.workers) {
		wi := s.workers[id]
		fs.Workers = append(fs.Workers, WorkerStatus{
			ID:                 id,
			LastSeenAgoSeconds: now.Sub(wi.lastSeen).Seconds(),
			Leases:             wi.leases,
			Results:            wi.results,
		})
	}
	return fs
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := metrics.WriteProm(w, s.PromSnapshot()); err != nil {
		s.logf("metrics exposition: %v", err)
	}
}

// handleStatusJSON serves the machine-readable fleet status.
func (s *Server) handleStatusJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.FleetStatus())
}

// applyDelta installs a request's piggybacked telemetry, if any.
func (s *Server) applyDelta(worker string, d *metrics.Delta) {
	if d == nil || worker == "" {
		return
	}
	s.telemetry.Apply(worker, *d)
}
