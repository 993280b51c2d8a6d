package chaos

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestDelayHonoursRequestContext: a delay fault holds the request only
// while its context lives. Cancelled mid-hold, RoundTrip returns the
// context's error within about 100 ms and forwards nothing, so a
// caller's deadline bounds a chaotic call as it bounds a real one.
func TestDelayHonoursRequestContext(t *testing.T) {
	var calls atomic.Int64
	tr := NewTransport(Plan{Faults: []Fault{{Kind: KindDelay, DelayMS: 2000}}}, okBody(200, "ok", &calls))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://coordinator/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := tr.RoundTrip(req)
	elapsed := time.Since(start)
	if resp != nil {
		resp.Body.Close()
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("RoundTrip error %v, want the context's deadline error", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("delay returned %s after the request began, %s after its 50ms deadline", elapsed, elapsed-50*time.Millisecond)
	}
	if calls.Load() != 0 {
		t.Errorf("a cancelled delay forwarded %d requests", calls.Load())
	}
}
