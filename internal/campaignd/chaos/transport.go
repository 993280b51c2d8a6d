package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"grinch/internal/campaignd"
	"grinch/internal/rng"
)

// Error is the typed transport error an injected fault surfaces —
// unwrappable through *url.Error so tests and telemetry can tell an
// injected failure from a real one.
type Error struct {
	Kind Kind
	Path string
	// N is the 1-based ordinal of the request among requests to Path.
	N uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s on %s (request %d)", e.Kind, e.Path, e.N)
}

// Transport is a fault-injecting http.RoundTripper: it wraps Inner
// (nil: http.DefaultTransport) and applies the Plan's first matching,
// active, firing fault to each request. Safe for concurrent use.
type Transport struct {
	plan  Plan
	inner http.RoundTripper
	// Logf receives one line per injected fault; nil discards.
	Logf func(format string, args ...any)
	// Sleep implements delay faults; nil waits on the request's
	// context (campaignd.Sleep). Tests inject a recorder so delay plans
	// run instantly.
	Sleep func(d time.Duration)

	mu     sync.Mutex
	counts map[string]uint64 // per-path request ordinals
	seeds  map[string]uint64 // per-path derived seeds (cached)
	hits   map[Kind]uint64   // injected faults by kind
}

// NewTransport builds a fault-injecting transport around inner (nil:
// http.DefaultTransport). Every fault of the plan must validate
// (Fault.Validate), as ParsePlan's are.
func NewTransport(plan Plan, inner http.RoundTripper) *Transport {
	return &Transport{
		plan:   plan,
		inner:  inner,
		counts: map[string]uint64{},
		seeds:  map[string]uint64{},
		hits:   map[Kind]uint64{},
	}
}

func (t *Transport) next() http.RoundTripper {
	if t.inner != nil {
		return t.inner
	}
	return http.DefaultTransport
}

func (t *Transport) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// sleep holds a delayed request for d, or until ctx ends, whose error
// it then returns.
func (t *Transport) sleep(ctx context.Context, d time.Duration) error {
	if t.Sleep != nil {
		t.Sleep(d)
		return nil
	}
	if !campaignd.Sleep(ctx, d) {
		return ctx.Err()
	}
	return nil
}

// decide numbers the request within its path stream and returns the
// first firing fault, if any. Decisions for the n-th request of a path
// are drawn from rng.Derive(Derive(seed, fnv(path)), n) — random
// access, so the fault sequence a path sees is independent of how
// requests to other paths interleave.
func (t *Transport) decide(path string) (Fault, uint64, bool) {
	t.mu.Lock()
	n := t.counts[path] + 1
	t.counts[path] = n
	pathSeed, ok := t.seeds[path]
	if !ok {
		h := fnv.New64a()
		io.WriteString(h, path)
		pathSeed = rng.Derive(t.plan.Seed, h.Sum64())
		t.seeds[path] = pathSeed
	}
	t.mu.Unlock()

	g := rng.New(rng.Derive(pathSeed, n))
	for _, f := range t.plan.Faults {
		if !f.matches(path) || !f.active(n) {
			continue
		}
		if g.Float64() < f.prob() {
			t.mu.Lock()
			t.hits[f.Kind]++
			t.mu.Unlock()
			return f, n, true
		}
	}
	return Fault{}, n, false
}

// Injected returns how many faults of the kind have fired.
func (t *Transport) Injected(kind Kind) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits[kind]
}

// InjectedTotal returns how many faults have fired in total.
func (t *Transport) InjectedTotal() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, k := range Kinds() {
		n += t.hits[Kind(k)]
	}
	return n
}

// Summary renders the per-kind injection counts compactly for drill
// logs ("delay=3 drop-response=2"; "none" when nothing fired).
func (t *Transport) Summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var parts []string
	for _, k := range Kinds() {
		if n := t.hits[Kind(k)]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// RoundTrip applies the plan to one request. Faults that fail the
// round-trip close the request body, per the http.RoundTripper
// contract.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, n, hit := t.decide(req.URL.Path)
	if !hit {
		return t.next().RoundTrip(req)
	}
	t.logf("chaos: injecting %s on %s (request %d)", f.Kind, req.URL.Path, n)
	switch f.Kind {
	case KindRefuse, KindDropRequest:
		// The request never reaches the server: nothing was committed.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &Error{Kind: f.Kind, Path: req.URL.Path, N: n}

	case Kind5xx:
		// Fabricate a server error without forwarding; drain the body so
		// the client's write side completes as it would against a real
		// server that read the request before erroring.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		status := f.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := `{"error":"chaos: injected server error"}`
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
			StatusCode:    status,
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil

	case KindDelay:
		if err := t.sleep(req.Context(), time.Duration(f.DelayMS)*time.Millisecond); err != nil {
			return nil, err
		}
		return t.next().RoundTrip(req)

	case KindDropResponse:
		// Forward fully — the server processes and commits — then lose
		// the response on the way back.
		resp, err := t.next().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &Error{Kind: f.Kind, Path: req.URL.Path, N: n}

	case KindTruncate:
		// Forward fully, then cut the response body off halfway: the
		// reader sees an unexpected EOF after the server committed.
		resp, err := t.next().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = &truncatedBody{data: data[:len(data)/2]}
		return resp, nil
	}
	// Validated plans never reach here.
	return nil, &Error{Kind: f.Kind, Path: req.URL.Path, N: n}
}

// truncatedBody serves a byte prefix and then fails the read, modeling
// a connection cut mid-body.
type truncatedBody struct {
	data []byte
	off  int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *truncatedBody) Close() error { return nil }
