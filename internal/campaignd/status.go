package campaignd

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"

	"grinch/internal/obs/metrics"
)

// MetricsSnapshot is the coordinator's operator-telemetry summary:
// the counter part of the /api/v1/status JSON and the status page's
// header line, derived from the same series /metrics exposes.
type MetricsSnapshot struct {
	Campaigns       int     `json:"campaigns"`
	CampaignsMerged int     `json:"campaigns_merged"`
	Shards          int     `json:"shards"`
	ShardsDone      int     `json:"shards_done"`
	ShardsLeased    int     `json:"shards_leased"`
	JobsTotal       int     `json:"jobs_total"`
	JobsDone        int     `json:"jobs_done"`
	JobsFailed      int     `json:"jobs_failed"`
	Encryptions     uint64  `json:"encryptions"`
	LeasesIssued    int     `json:"leases_issued"`
	LeasesActive    int     `json:"leases_active"`
	Reissues        int     `json:"reissues"`
	Duplicates      int     `json:"duplicates"`
	Shed            int     `json:"shed"`
	Workers         int     `json:"workers"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	JobsPerSecond   float64 `json:"jobs_per_second"`
	// ETASeconds estimates time-to-drain from the observed ingestion
	// rate (0 when idle or done). SuggestedShardSize is a shard-size
	// hint derived from observed job latency against the lease TTL (0
	// until latency data accumulates).
	ETASeconds         float64 `json:"eta_seconds"`
	SuggestedShardSize int     `json:"suggested_shard_size"`
}

// Metrics returns the current snapshot, read off the /metrics series
// (the state-derived ones plus the registry's). Jobs/sec is ingested
// results over uptime — a coarse operator number, not a benchmark.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	s.sweepLocked()
	series := append(s.synthSeriesLocked(), s.reg.Snapshot()...)
	up := s.now().Sub(s.started).Seconds()
	s.mu.Unlock()

	total := func(name string, labels ...metrics.Label) metrics.Series {
		return metrics.Total(series, name, labels...)
	}
	shards := func(state string) int { return int(total("campaignd_shards", metrics.L("state", state)).Gauge) }
	snap := MetricsSnapshot{
		Campaigns:          int(total("campaignd_campaigns").Gauge),
		CampaignsMerged:    int(total("campaignd_campaigns", metrics.L("state", CampaignMerged)).Gauge),
		Shards:             int(total("campaignd_shards").Gauge),
		ShardsDone:         shards(ShardDone),
		ShardsLeased:       shards(ShardLeased),
		JobsTotal:          int(total("campaignd_jobs").Gauge),
		JobsDone:           int(total("campaignd_jobs_done_total").Value),
		JobsFailed:         int(total("campaignd_jobs_failed_total").Value),
		Encryptions:        total("campaignd_encryptions_total").Value,
		LeasesIssued:       int(total("campaignd_leases_issued_total").Value),
		LeasesActive:       int(total("campaignd_leases_active").Gauge),
		Reissues:           int(total("campaignd_lease_reissues_total").Value),
		Duplicates:         int(total("campaignd_duplicate_results_total").Value),
		Shed:               int(total("campaignd_shed_total").Value),
		Workers:            int(total("campaignd_workers_seen").Gauge),
		UptimeSeconds:      up,
		SuggestedShardSize: s.suggestedShardSize(total("campaignd_shard_job_ms")),
	}
	if up > 0 {
		snap.JobsPerSecond = float64(total("campaignd_results_ingested_total").Value) / up
	}
	if snap.JobsPerSecond > 0 && snap.JobsTotal > snap.JobsDone {
		snap.ETASeconds = float64(snap.JobsTotal-snap.JobsDone) / snap.JobsPerSecond
	}
	return snap
}

// statusModel is the template input for the status page.
type statusModel struct {
	Metrics   MetricsSnapshot
	Campaigns []statusCampaign
	Workers   []statusWorker
}

type statusCampaign struct {
	CampaignStatus
	MergeErr string
}

type statusWorker struct {
	ID      string
	AgoSecs float64
	Leases  int
	Results int
}

var statusTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html><head><title>campaignd</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.6em 0 1.4em; }
td, th { border: 1px solid #999; padding: 2px 10px; text-align: left; }
th { background: #eee; }
.done { color: #060; } .leased { color: #06c; } .pending { color: #666; }
</style></head><body>
<h2>campaignd — distributed campaign coordinator</h2>
<p>{{.Metrics.Campaigns}} campaigns ({{.Metrics.CampaignsMerged}} merged) ·
{{.Metrics.JobsDone}}/{{.Metrics.JobsTotal}} jobs ({{.Metrics.JobsFailed}} failed) ·
{{printf "%.1f" .Metrics.JobsPerSecond}} jobs/sec ·
{{.Metrics.LeasesActive}} active leases ({{.Metrics.LeasesIssued}} issued, {{.Metrics.Reissues}} re-issued, {{.Metrics.Duplicates}} duplicate results, {{.Metrics.Shed}} shed) ·
{{.Metrics.Workers}} workers seen ·
up {{printf "%.0f" .Metrics.UptimeSeconds}}s ·
<a href="/debug/vars">expvar</a> · <a href="/debug/pprof/">pprof</a></p>
{{range .Campaigns}}
<h3>{{.ID}} — {{.Name}} [{{.State}}] {{.Done}}/{{.Jobs}} jobs{{if .Failed}}, {{.Failed}} failed{{end}}{{if .MergeErr}} — merge error: {{.MergeErr}}{{end}}</h3>
<table><tr><th>shard</th><th>jobs</th><th>state</th><th>worker</th><th>done</th><th>re-issues</th></tr>
{{range .Shards}}<tr><td>{{.Shard}}</td><td>[{{.Start}},{{.End}})</td><td class="{{.State}}">{{.State}}</td><td>{{.Worker}}</td><td>{{.Done}}/{{.Len}}</td><td>{{.Reissues}}</td></tr>
{{end}}</table>
{{else}}<p>No campaigns submitted. POST a spec to /api/v1/campaigns.</p>
{{end}}
{{if .Workers}}<h3>workers</h3>
<table><tr><th>worker</th><th>last seen</th><th>leases</th><th>results</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{printf "%.1f" .AgoSecs}}s ago</td><td>{{.Leases}}</td><td>{{.Results}}</td></tr>
{{end}}</table>{{end}}
</body></html>
`))

// handleStatusPage renders the human-facing shard board.
func (s *Server) handleStatusPage(w http.ResponseWriter, r *http.Request) {
	model := s.statusModel()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, model); err != nil {
		s.logf("status page: %v", err)
	}
}

func (s *Server) statusModel() statusModel {
	snap := s.Metrics()
	s.mu.Lock()
	defer s.mu.Unlock()
	model := statusModel{Metrics: snap}
	for _, id := range s.order {
		c := s.campaigns[id]
		model.Campaigns = append(model.Campaigns, statusCampaign{
			CampaignStatus: s.statusLocked(c, true),
			MergeErr:       c.mergeErr,
		})
	}
	ids := sortedWorkerIDs(s.workers)
	now := s.now()
	for _, id := range ids {
		wi := s.workers[id]
		model.Workers = append(model.Workers, statusWorker{
			ID:      id,
			AgoSecs: now.Sub(wi.lastSeen).Seconds(),
			Leases:  wi.leases,
			Results: wi.results,
		})
	}
	return model
}

// sortedWorkerIDs lists the worker directory's keys in sorted order.
func sortedWorkerIDs(workers map[string]*workerSeen) []string {
	ids := make([]string, 0, len(workers))
	for id := range workers { //grinchvet:ignore maporder key collection; sorted on the next line
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// String renders the snapshot compactly for logs.
func (m MetricsSnapshot) String() string {
	return fmt.Sprintf("campaigns %d/%d merged, jobs %d/%d (%d failed), leases %d active, %.1f jobs/sec",
		m.CampaignsMerged, m.Campaigns, m.JobsDone, m.JobsTotal, m.JobsFailed, m.LeasesActive, m.JobsPerSecond)
}
