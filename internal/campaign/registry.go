package campaign

import (
	"grinch/internal/obs/metrics"
)

// runMeter is the campaign executor's pre-resolved instrument set over
// an obs/metrics registry — the run's only counters. cmd/campaign's
// progress ticker and summary read them back from a registry snapshot,
// and /metrics exposes the same series. The zero value (nil
// Options.Registry) is fully inert.
type runMeter struct {
	jobs     *metrics.Gauge
	inFlight *metrics.Gauge

	done     *metrics.Counter
	failed   *metrics.Counter
	replayed *metrics.Counter

	encryptions *metrics.Counter
	retries     *metrics.Counter
	faults      *metrics.Counter
	partial     *metrics.Counter
	droppedOut  *metrics.Counter

	jobEnc *metrics.Histogram
	wallMS *metrics.Histogram
}

// newRunMeter resolves the campaign instrument set.
func newRunMeter(r *metrics.Registry) runMeter {
	if r == nil {
		return runMeter{}
	}
	status := func(s string) *metrics.Counter {
		return r.Counter("campaign_jobs_total",
			"Campaign jobs accounted, by terminal status.", metrics.L("status", s))
	}
	return runMeter{
		jobs: r.Gauge("campaign_jobs", "Campaign grid size."),
		inFlight: r.WallGauge("campaign_jobs_in_flight",
			"Jobs currently executing (non-deterministic)."),
		done:   status("done"),
		failed: status("failed"),
		replayed: r.Counter("campaign_jobs_replayed_total",
			"Jobs replayed from the journal instead of executed."),
		encryptions: r.Counter("campaign_encryptions_total",
			"Victim encryptions consumed across executed jobs."),
		retries: r.Counter("campaign_retries_total",
			"Transient-failure retries spent across executed jobs."),
		faults: r.Counter("campaign_faults_total",
			"Faults the injector fired across executed jobs."),
		partial: r.Counter("campaign_partial_total",
			"Jobs that ended in a structured partial result."),
		droppedOut: r.Counter("campaign_dropped_out_total",
			"Jobs that blew their encryption budget (the paper's >1M cells)."),
		jobEnc: r.Histogram("campaign_job_encryptions",
			"Victim encryptions per executed job.", metrics.EncryptionBuckets),
		wallMS: r.WallHistogram("campaign_job_wall_ms",
			"Per-job wall-clock duration, milliseconds (non-deterministic).", metrics.DurationMSBuckets),
	}
}

// begin sets the grid size and accounts the journal-replayed jobs by
// their recorded outcome, so the statuses of a finished run sum to the
// grid size with every failed job counted once.
func (m runMeter) begin(total, replayed, replayedFailed int) {
	m.jobs.Set(int64(total))
	m.replayed.Add(uint64(replayed))
	m.done.Add(uint64(replayed - replayedFailed))
	m.failed.Add(uint64(replayedFailed))
}

// finished accounts one executed job's terminal state.
func (m runMeter) finished(r Result) {
	if r.Failed {
		m.failed.Inc()
	} else {
		m.done.Inc()
	}
	m.encryptions.Add(r.Encryptions)
	m.retries.Add(r.Retries)
	m.faults.Add(r.Faults)
	if r.Partial {
		m.partial.Inc()
	}
	if r.DroppedOut {
		m.droppedOut.Inc()
	}
	m.jobEnc.Observe(r.Encryptions)
	if r.DurationNS > 0 {
		m.wallMS.Observe(uint64(r.DurationNS) / 1e6)
	}
}
