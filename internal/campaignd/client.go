package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/obs/metrics"
	"grinch/internal/rng"
)

// ErrLeaseGone reports that the server revoked the lease a call
// carried (expiry + re-issue): the worker must abandon the shard and
// lease a fresh one. Never retried — the lease cannot come back.
var ErrLeaseGone = errors.New("campaignd: lease revoked")

// Call classes. Each API call belongs to one class with its own retry
// budget: a report carries committed work and deserves persistence, a
// heartbeat is superseded by the next tick seconds later, a lease
// acquisition must outlast a coordinator restart.
const (
	ClassSubmit    = "submit"
	ClassLease     = "lease"
	ClassReport    = "report"
	ClassHeartbeat = "heartbeat"
	ClassComplete  = "complete"
	ClassQuery     = "query"
)

// DefaultCallTimeout bounds one HTTP attempt end to end. The pre-PR
// client used http.DefaultClient — no timeout at all — so a single
// stalled TCP connection hung a worker forever.
const DefaultCallTimeout = 30 * time.Second

// RetryPolicy configures the client's resilience layer: per-class
// attempt budgets, the exponential-backoff shape, the per-attempt
// timeout, and the jitter seed.
//
// Retried calls are safe end to end because every mutating call is
// idempotent server-side: Report deduplicates results by job index
// (results are pure functions of (spec, index)), Complete remembers
// lease IDs it already accepted, Heartbeat just re-extends, and
// telemetry deltas carry monotone sequence numbers. A response lost
// after the server committed therefore costs one duplicate round-trip,
// never a double-count.
type RetryPolicy struct {
	// Per-class total attempt budgets (first try included); 0 means the
	// class's default, negative means exactly one attempt.
	Submit    int
	Lease     int
	Report    int
	Heartbeat int
	Complete  int
	Query     int
	// Base and Max shape the exponential backoff: attempt k waits
	// Base·2^(k-1) capped at Max, plus up to 50% deterministic jitter.
	// Zero means the defaults (25ms base, 2s cap).
	Base time.Duration
	Max  time.Duration
	// CallTimeout bounds each attempt (0: DefaultCallTimeout).
	CallTimeout time.Duration
	// Seed drives the jitter generator. Backoff sequences are a pure
	// function of (Seed, attempt history) — no wall-clock reads — so
	// retry schedules are replayable in tests.
	Seed uint64
}

// DefaultRetryPolicy is the production posture: persistent on calls
// that carry committed work, impatient on calls that are naturally
// superseded. The client is the fleet's only retry loop, so the report
// and lease budgets alone must ride out a coordinator restart: at the
// default backoff, 17 report attempts wait ≈21.2 s and 15 lease
// attempts ≈17.2 s before jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Submit:    4,
		Lease:     15,
		Report:    17,
		Heartbeat: 2,
		Complete:  8,
		Query:     3,
		Base:      25 * time.Millisecond,
		Max:       2 * time.Second,
	}
}

// NoRetryPolicy reproduces the pre-chaos client semantics — exactly
// one attempt per call, fail on the first dropped response — kept so
// tests can demonstrate the behavior this layer exists to fix.
func NoRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Submit: -1, Lease: -1, Report: -1, Heartbeat: -1, Complete: -1, Query: -1,
		Base: time.Millisecond, Max: time.Millisecond,
	}
}

// attempts resolves the class's total attempt budget.
func (p RetryPolicy) attempts(class string) int {
	pick := func(v, def int) int {
		switch {
		case v < 0:
			return 1
		case v == 0:
			return def
		default:
			return v
		}
	}
	d := DefaultRetryPolicy()
	switch class {
	case ClassSubmit:
		return pick(p.Submit, d.Submit)
	case ClassLease:
		return pick(p.Lease, d.Lease)
	case ClassReport:
		return pick(p.Report, d.Report)
	case ClassHeartbeat:
		return pick(p.Heartbeat, d.Heartbeat)
	case ClassComplete:
		return pick(p.Complete, d.Complete)
	default:
		return pick(p.Query, d.Query)
	}
}

func (p RetryPolicy) base() time.Duration {
	if p.Base > 0 {
		return p.Base
	}
	return 25 * time.Millisecond
}

func (p RetryPolicy) max() time.Duration {
	if p.Max > 0 {
		return p.Max
	}
	return 2 * time.Second
}

func (p RetryPolicy) timeout() time.Duration {
	if p.CallTimeout > 0 {
		return p.CallTimeout
	}
	return DefaultCallTimeout
}

// transientError marks a failure worth retrying (transport errors,
// truncated bodies, 5xx, 429). RetryAfter carries the server's shed
// hint when one was sent.
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Client is the JSON/HTTP client for the coordinator API, used by the
// shard worker, the CLIs, and the tests. The zero value (plus Base) is
// production-ready: a shared timeout-bearing http.Client and the
// default retry policy.
//
// Every call takes the caller's context first. Each attempt runs under
// a timeout derived from it, the backoff between attempts waits on it,
// and once it is done the call returns its error, never a transient
// one — a cancelled worker stops at once, even mid-backoff.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8844".
	Base string
	// HTTP overrides the transport; nil uses a shared client with
	// DefaultCallTimeout (never http.DefaultClient, which has no
	// timeout). Chaos drills install a fault-injecting transport here.
	HTTP *http.Client
	// Retry overrides the retry policy; nil means DefaultRetryPolicy.
	Retry *RetryPolicy
	// OnRetry, if set, observes every backoff: the call class, the
	// attempt that failed (1-based), the wait before the next attempt,
	// and the error. The worker wires its retry telemetry here.
	OnRetry func(class string, attempt int, wait time.Duration, err error)

	jmu    sync.Mutex
	jitter *rng.Source
}

// defaultHTTPClient is shared across Clients so connection pools are
// reused; its timeout is a backstop behind the per-attempt context
// timeout.
var defaultHTTPClient = &http.Client{Timeout: 2 * DefaultCallTimeout}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) policy() RetryPolicy {
	if c.Retry != nil {
		return *c.Retry
	}
	return DefaultRetryPolicy()
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

// backoffWait computes the deterministic wait before retrying after
// the k-th failed attempt: Base·2^(k-1) capped at Max, plus up to 50%
// seeded jitter, floored by the server's Retry-After hint (itself
// capped at Max so a coarse seconds-granularity header cannot stall a
// fast test fleet).
func (c *Client) backoffWait(p RetryPolicy, attempt int, err error) time.Duration {
	wait := p.base() << uint(attempt-1)
	if wait > p.max() || wait <= 0 {
		wait = p.max()
	}
	var te *transientError
	if errors.As(err, &te) && te.retryAfter > 0 {
		if ra := min(te.retryAfter, p.max()); ra > wait {
			wait = ra
		}
	}
	c.jmu.Lock()
	if c.jitter == nil {
		c.jitter = rng.New(p.Seed)
	}
	j := c.jitter.Float64()
	c.jmu.Unlock()
	return wait + time.Duration(j*float64(wait)/2)
}

// do round-trips one call with the class's retry budget. body is nil
// for GETs. out may be nil; raw (when non-nil) receives the response
// body instead of JSON-decoding into out.
func (c *Client) do(ctx context.Context, class, method, path string, body []byte, out any, raw *[]byte) error {
	p := c.policy()
	budget := p.attempts(class)
	for attempt := 1; ; attempt++ {
		err := c.once(ctx, method, path, body, out, raw, p.timeout())
		if err == nil {
			return nil
		}
		var te *transientError
		if !errors.As(err, &te) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt >= budget {
			if budget > 1 {
				return fmt.Errorf("campaignd: %s failed after %d attempts: %w", class, attempt, err)
			}
			return err
		}
		wait := c.backoffWait(p, attempt, err)
		if c.OnRetry != nil {
			c.OnRetry(class, attempt, wait, err)
		}
		if !sleepCtx(ctx, wait) {
			return ctx.Err()
		}
	}
}

// sleepCtx sleeps d or until ctx is done, reporting whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// once performs a single HTTP attempt under a timeout derived from ctx.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, raw *[]byte, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Transport-level failure: refused, dropped, timed out. The
		// request may or may not have been committed server-side; every
		// mutating call is idempotent, so replay is safe.
		return &transientError{err: err}
	}
	data, err := decodeResponse(resp)
	if err != nil {
		return err
	}
	if raw != nil {
		*raw = data
		return nil
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("campaignd: decoding %s response: %w", path, err)
	}
	return nil
}

// decodeResponse is the single response-decoding path for every call
// (the JSON API and the raw output endpoint alike): it drains the
// body, classifies the status, and maps error payloads. A body read
// error after a 2xx status is transient — the work committed, only
// the response bytes were lost.
func decodeResponse(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if resp.StatusCode/100 == 2 {
			return nil, &transientError{err: fmt.Errorf("campaignd: reading response: %w", err)}
		}
		return nil, fmt.Errorf("campaignd: reading %s response: %w", resp.Status, err)
	}
	switch {
	case resp.StatusCode == http.StatusGone:
		return nil, ErrLeaseGone
	case resp.StatusCode == http.StatusTooManyRequests:
		// Overload shedding: always retryable, honoring Retry-After.
		err := fmt.Errorf("campaignd: server shedding load: %s", serverMessage(data, resp.Status))
		return nil, &transientError{err: err, retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	case resp.StatusCode/100 == 5:
		return nil, &transientError{err: fmt.Errorf("campaignd: server: %s", serverMessage(data, resp.Status))}
	case resp.StatusCode/100 != 2:
		return nil, fmt.Errorf("campaignd: server: %s", serverMessage(data, resp.Status))
	}
	return data, nil
}

// serverMessage extracts the API error payload, falling back to the
// HTTP status line.
func serverMessage(data []byte, status string) string {
	var e errorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("returned %s", status)
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the
// only form the coordinator emits; HTTP-date would need a wall-clock
// read, which the deterministic scope forbids).
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// post round-trips one JSON request; out may be nil.
func (c *Client) post(ctx context.Context, class, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, class, http.MethodPost, path, body, out, nil)
}

// get round-trips one GET.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, ClassQuery, http.MethodGet, path, nil, out, nil)
}

// Submit registers a campaign.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.post(ctx, ClassSubmit, PathCampaigns, req, &resp)
	return resp, err
}

// Lease asks for a shard; a nil Lease with AllDone reports a drained
// coordinator.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.post(ctx, ClassLease, PathLease, LeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Report streams a result batch for a leased shard, with a piggybacked
// worker telemetry delta (ignored server-side when worker is empty or
// d is nil).
func (c *Client) Report(ctx context.Context, leaseID string, results []campaign.Result, worker string, d *metrics.Delta) error {
	return c.post(ctx, ClassReport, PathResults, ReportRequest{Lease: leaseID, Results: results, Worker: worker, Metrics: d}, nil)
}

// Heartbeat extends a lease, with a piggybacked telemetry delta.
func (c *Client) Heartbeat(ctx context.Context, leaseID, worker string, d *metrics.Delta) error {
	return c.post(ctx, ClassHeartbeat, PathHeartbeat, HeartbeatRequest{Lease: leaseID, Worker: worker, Metrics: d}, nil)
}

// Complete marks a leased shard fully executed, with a piggybacked
// telemetry delta. Safe to retry: the server remembers accepted
// completions by lease ID, so a replay after a lost response
// acknowledges instead of 410ing.
func (c *Client) Complete(ctx context.Context, leaseID, worker string, d *metrics.Delta) error {
	return c.post(ctx, ClassComplete, PathComplete, CompleteRequest{Lease: leaseID, Worker: worker, Metrics: d}, nil)
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
