package campaignd

import (
	"context"
	"net/http"
	"time"

	"grinch/internal/obs/metrics"
)

// Test-only hooks and client calls for the external campaignd_test
// package: nothing outside the tests uses them.

// NoRetryPolicy reproduces the pre-chaos client semantics — exactly
// one attempt per call, fail on the first dropped response — so tests
// can demonstrate the behavior the retry layer exists to fix.
func NoRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Submit: -1, Lease: -1, Report: -1, Heartbeat: -1, Complete: -1, Query: -1,
		Base: time.Millisecond, Max: time.Millisecond,
	}
}

// ApplyTelemetry installs a worker's cumulative metrics delta, as the
// HTTP handlers do; it reports whether the delta was fresh.
func (s *Server) ApplyTelemetry(worker string, d metrics.Delta) bool {
	return s.telemetry.Apply(worker, d)
}

// WorkerTelemetry returns the latest series a worker shipped.
func (s *Server) WorkerTelemetry(worker string) []metrics.Series {
	return s.telemetry.Source(worker)
}

// FleetStatus fetches the machine-readable coordinator status.
func (c *Client) FleetStatus(ctx context.Context) (FleetStatus, error) {
	var out FleetStatus
	err := c.get(ctx, PathStatusJSON, &out)
	return out, err
}

// Statuses lists every campaign.
func (c *Client) Statuses(ctx context.Context) ([]CampaignStatus, error) {
	var out []CampaignStatus
	err := c.get(ctx, PathCampaigns, &out)
	return out, err
}

// Status fetches one campaign with shard detail.
func (c *Client) Status(ctx context.Context, id string) (CampaignStatus, error) {
	var out CampaignStatus
	err := c.get(ctx, PathCampaigns+"/"+id, &out)
	return out, err
}

// Output fetches a merged campaign's canonical JSONL bytes.
func (c *Client) Output(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, ClassQuery, http.MethodGet, PathCampaigns+"/"+id+"/output", nil, nil, &raw)
	return raw, err
}

// get round-trips one GET.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, ClassQuery, http.MethodGet, path, nil, out, nil)
}
