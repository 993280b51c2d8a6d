// Package campaignd is the distributed campaign coordinator: it
// promotes the single-process orchestrator in internal/campaign to a
// sharded, multi-node service while preserving its byte-determinism
// contract end to end.
//
// Roles:
//
//   - The server (this package, served by cmd/campaignd) accepts
//     campaign specs over a small JSON/HTTP API, partitions each
//     spec's canonical job grid into contiguous shards, leases shards
//     to pull-based workers, ingests their results into one journal
//     per campaign (cmd/campaign's checkpoint format), and — once
//     every shard is complete — merges them in shard order into the
//     same JSONL/CSV bytes cmd/campaign writes.
//   - Workers (internal/campaignd/worker, served by cmd/campaignw)
//     lease one shard at a time, execute its jobs on a local pool via
//     campaign.ExecuteJobs, and stream result batches back.
//
// Determinism. Every job's RNG seed derives from (campaign seed, job
// index) and every result the server ingests or journals is the
// canonical projection (campaign.Result.Canonical — no wall-clock or
// worker fields), so a result is a pure function of the spec no matter
// which node computed it or how many times. Shards are contiguous
// index ranges and the merge walks them in order, so the merged
// JSONL/CSV bytes are identical to a single-process cmd/campaign run
// of the same spec — for any worker count, any shard size, and any
// node-loss/re-issue history. The campaignd tests assert this
// byte-for-byte.
//
// Fault tolerance. Leases carry a TTL and workers heartbeat; a lease
// that expires (node loss) is revoked and its shard re-issued. Results
// ingested before the loss are kept — journaled by job index in the
// campaign's journal — so the re-issued lease tells the new worker
// which job indices are already done and only the unreported remainder
// re-executes (the same checkpoint as cmd/campaign's journal, in the
// same format).
// Ingestion and completion are fenced by lease ID: a zombie worker
// whose lease was re-issued gets 410 Gone and abandons the shard.
package campaignd

import (
	"grinch/internal/campaign"
	"grinch/internal/obs/metrics"
)

// API paths (version-prefixed so the wire protocol can evolve).
const (
	PathCampaigns  = "/api/v1/campaigns"
	PathLease      = "/api/v1/lease"
	PathResults    = "/api/v1/results"
	PathHeartbeat  = "/api/v1/heartbeat"
	PathComplete   = "/api/v1/complete"
	PathStatus     = "/status"
	PathStatusJSON = "/api/v1/status"
	PathMetrics    = "/metrics"
)

// SubmitRequest submits one campaign: the spec plus server-side
// execution options.
type SubmitRequest struct {
	Spec campaign.Spec `json:"spec"`
	// ShardSize caps jobs per shard (0: the server's default).
	ShardSize int `json:"shard_size,omitempty"`
	// Out and CSV, when set, are server-side paths the merged JSONL /
	// CSV output is written to once every shard completes. The merged
	// JSONL is always also retrievable from GET /api/v1/campaigns/{id}/output.
	Out string `json:"out,omitempty"`
	CSV string `json:"csv,omitempty"`
}

// SubmitResponse acknowledges a submitted campaign.
type SubmitResponse struct {
	ID     string `json:"id"`
	Jobs   int    `json:"jobs"`
	Shards int    `json:"shards"`
}

// Shard state machine: pending → leased → done, with leased → pending
// on lease expiry (re-issue).
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// ShardStatus is one shard's row in a campaign status report.
type ShardStatus struct {
	ShardRange
	State string `json:"state"`
	// Worker holds the current (leased) or last (done) worker ID.
	Worker string `json:"worker,omitempty"`
	// Done counts results ingested for this shard so far.
	Done int `json:"done"`
	// Reissues counts lease expiries that returned the shard to the
	// pending state.
	Reissues int `json:"reissues,omitempty"`
	// Encryptions sums the victim encryptions of the shard's ingested
	// results (journal-replayed results included).
	Encryptions uint64 `json:"encryptions,omitempty"`
	// P50MS/P90MS/P99MS are ingestion-observed job wall-latency
	// quantiles in milliseconds (0 until results arrive this process —
	// journals store canonical results, which carry no timing).
	P50MS float64 `json:"p50_ms,omitempty"`
	P90MS float64 `json:"p90_ms,omitempty"`
	P99MS float64 `json:"p99_ms,omitempty"`
}

// Campaign states.
const (
	CampaignRunning = "running"
	CampaignMerged  = "merged"
)

// CampaignStatus reports one campaign's progress.
type CampaignStatus struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	Jobs        int    `json:"jobs"`
	// Done counts ingested results across shards; Failed counts ingested
	// results whose job failed.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Shards is included by the per-campaign endpoint and omitted from
	// list responses.
	Shards []ShardStatus `json:"shards,omitempty"`
	// MergeError is the last failed merge's error (empty once a merge
	// succeeds).
	MergeError string `json:"merge_error,omitempty"`
}

// LeaseRequest asks for one shard of work.
type LeaseRequest struct {
	// Worker is the requesting worker's self-assigned identity, used
	// for status display and lease attribution.
	Worker string `json:"worker"`
}

// LeaseResponse grants a lease, or reports that no work is available.
type LeaseResponse struct {
	// Lease is nil when no shard is pending.
	Lease *Lease `json:"lease,omitempty"`
	// AllDone reports that every submitted campaign has merged — the
	// signal a draining worker exits on. Meaningful only when Lease is
	// nil.
	AllDone bool `json:"all_done,omitempty"`
}

// Lease is one granted shard: everything a worker needs to execute it
// without further coordination.
type Lease struct {
	// ID fences the lease: results, heartbeats and completion carrying
	// a revoked lease ID are rejected with 410 Gone.
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	ShardRange
	// Spec is the full campaign spec; the worker expands the jobs of
	// [Start, End) locally (campaign.Spec.JobsRange) — cheaper and
	// safer than shipping expanded jobs, since expansion is a pure
	// function of the spec.
	Spec campaign.Spec `json:"spec"`
	// DoneJobs lists job indices of this shard already ingested by the
	// server (from a previous holder of the shard); the worker skips
	// them — mid-shard resume.
	DoneJobs []int `json:"done_jobs,omitempty"`
	// TTLMS is the lease's time-to-live in milliseconds; the worker
	// heartbeats well inside it.
	TTLMS int64 `json:"ttl_ms"`
}

// ReportRequest streams a batch of completed results for a leased
// shard. Results outside the lease's shard range are rejected.
//
// Worker and Metrics piggyback the sender's telemetry delta (see
// metrics.Delta: cumulative totals plus a monotone sequence number, so
// retried or replayed batches can never double-count). The server
// applies the delta even when the lease turns out to be dead —
// telemetry is health data, not shard state.
type ReportRequest struct {
	Lease   string            `json:"lease"`
	Results []campaign.Result `json:"results"`
	Worker  string            `json:"worker,omitempty"`
	Metrics *metrics.Delta    `json:"metrics,omitempty"`
}

// HeartbeatRequest extends a lease, optionally carrying a telemetry
// delta (see ReportRequest).
type HeartbeatRequest struct {
	Lease   string         `json:"lease"`
	Worker  string         `json:"worker,omitempty"`
	Metrics *metrics.Delta `json:"metrics,omitempty"`
}

// CompleteRequest marks a leased shard fully executed. The server
// verifies every index in the shard range has been ingested. Worker
// and Metrics carry the final telemetry delta of the shard.
type CompleteRequest struct {
	Lease   string         `json:"lease"`
	Worker  string         `json:"worker,omitempty"`
	Metrics *metrics.Delta `json:"metrics,omitempty"`
}

// errorResponse is the JSON body of non-2xx API responses.
type errorResponse struct {
	Error string `json:"error"`
}
