package campaignd_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grinch/internal/campaignd"
)

// fastPolicy is a retry policy with sub-millisecond backoff so retry
// tests run in microseconds of wall sleep.
func fastPolicy() campaignd.RetryPolicy {
	return campaignd.RetryPolicy{
		Base: 100 * time.Microsecond,
		Max:  time.Millisecond,
		Seed: 7,
	}
}

// scriptServer serves a scripted status sequence (the last entry
// repeats) and counts requests.
func scriptServer(t *testing.T, statuses ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(n.Add(1)) - 1
		if i >= len(statuses) {
			i = len(statuses) - 1
		}
		status := statuses[i]
		if status == http.StatusOK {
			w.Write([]byte(`{}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(`{"error":"scripted failure"}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &n
}

// TestClientRetriesTransient proves the resilience layer: two scripted
// 500s, then success — the call succeeds and the OnRetry hook saw both
// backoffs.
func TestClientRetriesTransient(t *testing.T) {
	ts, n := scriptServer(t, 500, 503, 200)
	pol := fastPolicy()
	var retries []int
	c := &campaignd.Client{Base: ts.URL, Retry: &pol,
		OnRetry: func(class string, attempt int, wait time.Duration, err error) {
			if class != campaignd.ClassReport {
				t.Errorf("OnRetry class %q, want report", class)
			}
			retries = append(retries, attempt)
		}}
	if err := c.Report(context.Background(), "lease-x", nil, "", nil); err != nil {
		t.Fatalf("Report after two transient failures: %v", err)
	}
	if n.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", n.Load())
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("OnRetry attempts %v, want [1 2]", retries)
	}
}

// TestClientHonorsRetryAfter pins the overload-shedding handshake: a
// 429 with Retry-After floors the backoff at the server's hint (capped
// by the policy Max).
func TestClientHonorsRetryAfter(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"ingest overloaded"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	pol := fastPolicy()
	pol.Max = 30 * time.Millisecond // cap the 1s hint so the test stays fast
	var waits []time.Duration
	c := &campaignd.Client{Base: ts.URL, Retry: &pol,
		OnRetry: func(_ string, _ int, wait time.Duration, _ error) { waits = append(waits, wait) }}
	if err := c.Heartbeat(context.Background(), "lease-x", "", nil); err != nil {
		t.Fatalf("heartbeat through one 429: %v", err)
	}
	if len(waits) != 1 {
		t.Fatalf("%d retries, want 1", len(waits))
	}
	// Base backoff would be ~100µs; the Retry-After floor must push the
	// wait to Max (30ms) plus up to 50% jitter.
	if waits[0] < 30*time.Millisecond || waits[0] > 45*time.Millisecond {
		t.Errorf("backoff %s ignored the Retry-After floor (want 30ms..45ms)", waits[0])
	}
}

// TestClientLeaseGoneNotRetried: 410 means the lease is dead and can
// never come back — retrying would only delay the worker re-leasing.
func TestClientLeaseGoneNotRetried(t *testing.T) {
	ts, n := scriptServer(t, http.StatusGone)
	pol := fastPolicy()
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	if err := c.Heartbeat(context.Background(), "stale", "", nil); !errors.Is(err, campaignd.ErrLeaseGone) {
		t.Fatalf("err = %v, want ErrLeaseGone", err)
	}
	if n.Load() != 1 {
		t.Fatalf("server saw %d requests; a revoked lease must not be retried", n.Load())
	}
}

// TestClientTerminalClientError: a 4xx (other than 410/429) is the
// caller's bug; retrying cannot fix it.
func TestClientTerminalClientError(t *testing.T) {
	ts, n := scriptServer(t, http.StatusBadRequest)
	pol := fastPolicy()
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	err := c.Report(context.Background(), "lease-x", nil, "", nil)
	if err == nil || !strings.Contains(err.Error(), "scripted failure") {
		t.Fatalf("err = %v, want the server's message, untried", err)
	}
	if n.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", n.Load())
	}
}

// TestClientBudgetExhausted: a persistent outage burns the class
// budget and reports how hard it tried.
func TestClientBudgetExhausted(t *testing.T) {
	ts, n := scriptServer(t, http.StatusServiceUnavailable)
	pol := fastPolicy()
	pol.Report = 3
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	err := c.Report(context.Background(), "lease-x", nil, "", nil)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want a 3-attempt budget exhaustion", err)
	}
	if n.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly the budget", n.Load())
	}
}

// TestClientNoRetryPolicyIsSingleShot pins the legacy posture the
// chaos layer replaced: one attempt, first transient failure surfaces.
func TestClientNoRetryPolicyIsSingleShot(t *testing.T) {
	ts, n := scriptServer(t, http.StatusServiceUnavailable, http.StatusOK)
	pol := campaignd.NoRetryPolicy()
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	if err := c.Report(context.Background(), "lease-x", nil, "", nil); err == nil {
		t.Fatal("single-shot policy retried through a 503")
	}
	if n.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", n.Load())
	}
}

// TestClientBackoffDeterminism: same seed, same failure script → the
// same backoff schedule, replayable across client instances.
func TestClientBackoffDeterminism(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		ts, _ := scriptServer(t, http.StatusServiceUnavailable)
		pol := fastPolicy()
		pol.Seed = seed
		pol.Report = 4
		var waits []time.Duration
		var mu sync.Mutex
		c := &campaignd.Client{Base: ts.URL, Retry: &pol,
			OnRetry: func(_ string, _ int, wait time.Duration, _ error) {
				mu.Lock()
				waits = append(waits, wait)
				mu.Unlock()
			}}
		c.Report(context.Background(), "lease-x", nil, "", nil)
		return waits
	}
	a, b := schedule(12345), schedule(12345)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedules %v / %v, want 3 waits each", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at backoff %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestClientPerAttemptTimeout: a stalled coordinator cannot hang a
// call past its per-attempt deadline (the pre-hardening client used
// http.DefaultClient and hung forever).
func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test ends
	}))
	defer ts.Close()
	// Unblock the handler before ts.Close() waits on it (defers are LIFO).
	defer close(release)

	pol := campaignd.NoRetryPolicy()
	pol.CallTimeout = 20 * time.Millisecond
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	start := time.Now()
	err := c.Heartbeat(context.Background(), "lease-x", "", nil)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s; the deadline did not bound the attempt", elapsed)
	}
}

// TestClientCancelMidBackoff: a call whose context is cancelled while
// it backs off returns the context's error at once, not the transient
// failure it was retrying.
func TestClientCancelMidBackoff(t *testing.T) {
	ts, n := scriptServer(t, http.StatusServiceUnavailable)
	pol := campaignd.RetryPolicy{Report: 5, Base: time.Minute, Max: time.Minute}
	c := &campaignd.Client{Base: ts.URL, Retry: &pol}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	err := c.Report(ctx, "lease-x", nil, "", nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want exactly context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled call returned after %s; the backoff ignored the context", elapsed)
	}
	if n.Load() != 1 {
		t.Fatalf("server saw %d requests, want the one before the backoff", n.Load())
	}
}
