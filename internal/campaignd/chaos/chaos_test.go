package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// okBody returns a stub inner transport that serves status with body
// and counts how often it is reached.
func okBody(status int, body string, calls *atomic.Int64) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &http.Response{
			StatusCode: status,
			Status:     http.StatusText(status),
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    r,
		}, nil
	})
}

func mustReq(t *testing.T, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://coordinator"+path, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestParsePlanRoundTrip pins the -chaos flag syntax: parse, field
// values, and String() re-parsing to the same plan.
func TestParsePlanRoundTrip(t *testing.T) {
	spec := "drop-response:path=/api/v1/results:p=0.2,delay:ms=40:p=0.5,5xx:status=502:start=10:len=5:period=50,refuse,truncate:path=/api/v1/campaigns,drop-request:p=1"
	p, err := ParsePlan(spec, 42)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 42 || len(p.Faults) != 6 {
		t.Fatalf("plan %+v: want seed 42, 6 faults", p)
	}
	f := p.Faults[0]
	if f.Kind != KindDropResponse || f.Path != "/api/v1/results" || f.Probability != 0.2 {
		t.Errorf("fault 0 parsed as %+v", f)
	}
	f = p.Faults[1]
	if f.Kind != KindDelay || f.DelayMS != 40 || f.Probability != 0.5 {
		t.Errorf("fault 1 parsed as %+v", f)
	}
	f = p.Faults[2]
	if f.Kind != Kind5xx || f.Status != 502 || f.Start != 10 || f.Length != 5 || f.Period != 50 {
		t.Errorf("fault 2 parsed as %+v", f)
	}

	again, err := ParsePlan(p.String(), 42)
	if err != nil {
		t.Fatalf("re-parsing String(): %v", err)
	}
	if p.String() != again.String() {
		t.Errorf("String round-trip drifted: %q vs %q", p.String(), again.String())
	}

	empty, err := ParsePlan("  ", 7)
	if err != nil || len(empty.Faults) != 0 {
		t.Errorf("blank spec: plan %+v, err %v; want empty", empty, err)
	}
}

// TestParsePlanErrors rejects malformed specs with telling messages.
func TestParsePlanErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"explode", "unknown fault kind"},
		{"delay", "needs ms > 0"},
		{"delay:ms=nope", "parameter"},
		{"5xx:status=404", "outside [500,599]"},
		{"refuse:p=1.5", "outside [0,1]"},
		{"5xx:p=NaN", "outside [0,1]"},
		{"refuse:ms=-5", "negative"},
		{"refuse:len=10:period=5", "exceeds period"},
		{"refuse:foo=1", "unknown parameter"},
		{"refuse:path", "not key=value"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.spec, 1); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) err = %v, want substring %q", c.spec, err, c.wantSub)
		}
	}
}

// FuzzParsePlan: a plan ParsePlan accepts validates, and its String()
// parses back to the same plan. The seed corpus in
// testdata/fuzz/FuzzParsePlan holds the DSL examples plus inputs that
// once broke the round trip (a NaN probability, a negative parameter a
// kind ignores, a path ending in a space).
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := ParsePlan(spec, seed)
		if err != nil {
			return
		}
		for i, f := range p.Faults {
			if err := f.Validate(); err != nil {
				t.Fatalf("ParsePlan(%q) accepted a plan whose fault %d does not validate: %v", spec, i, err)
			}
		}
		again, err := ParsePlan(p.String(), seed)
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("ParsePlan(%q) = %#v, but its String() %q parses as %#v", spec, p, p.String(), again)
		}
	})
}

// TestFaultWindow pins the faults.Fault-style windowing arithmetic.
func TestFaultWindow(t *testing.T) {
	f := Fault{Kind: KindRefuse, Start: 10, Length: 5, Period: 50}
	for n, want := range map[uint64]bool{
		1: false, 9: false, 10: true, 14: true, 15: false, 59: false,
		60: true, 64: true, 65: false, 110: true,
	} {
		if got := f.active(n); got != want {
			t.Errorf("window{10,5,50}.active(%d) = %v, want %v", n, got, want)
		}
	}
	open := Fault{Kind: KindRefuse, Start: 3}
	if open.active(2) || !open.active(3) || !open.active(1000) {
		t.Error("open-ended window from 3 misbehaved")
	}
	zero := Fault{Kind: KindRefuse}
	if !zero.active(1) {
		t.Error("zero Start must normalize to 1")
	}
}

// TestTransportDeterminism is the replayability contract: the fault
// ordinals a path sees are a pure function of (seed, path, ordinal) —
// identical across transports and unmoved by traffic on other paths.
func TestTransportDeterminism(t *testing.T) {
	plan := Plan{Seed: 99, Faults: []Fault{
		{Kind: KindDropRequest, Path: "/a", Probability: 0.5},
	}}
	if err := plan.Faults[0].Validate(); err != nil {
		t.Fatal(err)
	}
	faultOrdinals := func(interleave bool) []uint64 {
		tr := NewTransport(plan, okBody(200, "{}", nil))
		var hit []uint64
		for i := 0; i < 200; i++ {
			if interleave {
				// Traffic on another path must not shift /a's sequence.
				tr.RoundTrip(mustReq(t, "/b"))
			}
			_, err := tr.RoundTrip(mustReq(t, "/a"))
			var ce *Error
			if errors.As(err, &ce) {
				hit = append(hit, ce.N)
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		}
		return hit
	}
	plain := faultOrdinals(false)
	if len(plain) < 50 || len(plain) > 150 {
		t.Fatalf("p=0.5 over 200 requests fired %d times; generator looks broken", len(plain))
	}
	for run := 0; run < 3; run++ {
		again := faultOrdinals(false)
		if len(again) != len(plain) {
			t.Fatalf("replay fired %d faults, want %d", len(again), len(plain))
		}
		for i := range plain {
			if plain[i] != again[i] {
				t.Fatalf("replay diverged at fault %d: ordinal %d vs %d", i, again[i], plain[i])
			}
		}
	}
	mixed := faultOrdinals(true)
	if len(mixed) != len(plain) {
		t.Fatalf("interleaved traffic changed the fault count: %d vs %d", len(mixed), len(plain))
	}
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("interleaved traffic shifted fault %d: ordinal %d vs %d", i, mixed[i], plain[i])
		}
	}
}

// TestTransportKinds exercises each fault kind's wire behavior against
// a stub inner transport.
func TestTransportKinds(t *testing.T) {
	t.Run("refuse and drop-request never reach the server", func(t *testing.T) {
		for _, kind := range []Kind{KindRefuse, KindDropRequest} {
			var calls atomic.Int64
			tr := NewTransport(Plan{Faults: []Fault{{Kind: kind}}}, okBody(200, "{}", &calls))
			_, err := tr.RoundTrip(mustReq(t, "/x"))
			var ce *Error
			if !errors.As(err, &ce) || ce.Kind != kind || ce.N != 1 {
				t.Fatalf("%s: err = %v, want *Error{%s, n=1}", kind, err, kind)
			}
			if calls.Load() != 0 {
				t.Errorf("%s leaked the request to the server", kind)
			}
			if tr.Injected(kind) != 1 || tr.InjectedTotal() != 1 {
				t.Errorf("%s: injection counters %d/%d", kind, tr.Injected(kind), tr.InjectedTotal())
			}
		}
	})

	t.Run("5xx fabricates without forwarding", func(t *testing.T) {
		var calls atomic.Int64
		tr := NewTransport(Plan{Faults: []Fault{{Kind: Kind5xx, Status: 502}}}, okBody(200, "{}", &calls))
		resp, err := tr.RoundTrip(mustReq(t, "/x"))
		if err != nil || resp.StatusCode != 502 {
			t.Fatalf("resp %+v err %v, want fabricated 502", resp, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "chaos") {
			t.Errorf("fabricated body %q does not identify itself", body)
		}
		if calls.Load() != 0 {
			t.Error("5xx fault forwarded the request")
		}
	})

	t.Run("delay forwards after the hold", func(t *testing.T) {
		var calls atomic.Int64
		var slept time.Duration
		tr := NewTransport(Plan{Faults: []Fault{{Kind: KindDelay, DelayMS: 40}}}, okBody(200, "ok", &calls))
		tr.Sleep = func(d time.Duration) { slept += d }
		resp, err := tr.RoundTrip(mustReq(t, "/x"))
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("resp %+v err %v", resp, err)
		}
		resp.Body.Close()
		if slept != 40*time.Millisecond || calls.Load() != 1 {
			t.Errorf("slept %s, %d forwards; want 40ms and 1", slept, calls.Load())
		}
	})

	t.Run("drop-response commits server-side then fails", func(t *testing.T) {
		var calls atomic.Int64
		tr := NewTransport(Plan{Faults: []Fault{{Kind: KindDropResponse}}}, okBody(200, "{}", &calls))
		_, err := tr.RoundTrip(mustReq(t, "/x"))
		var ce *Error
		if !errors.As(err, &ce) || ce.Kind != KindDropResponse {
			t.Fatalf("err = %v, want injected drop-response", err)
		}
		if calls.Load() != 1 {
			t.Error("drop-response must forward the request before losing the response")
		}
	})

	t.Run("truncate cuts the body mid-read", func(t *testing.T) {
		tr := NewTransport(Plan{Faults: []Fault{{Kind: KindTruncate}}}, okBody(200, "0123456789abcdef", nil))
		resp, err := tr.RoundTrip(mustReq(t, "/x"))
		if err != nil {
			t.Fatal(err)
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(rerr, io.ErrUnexpectedEOF) {
			t.Fatalf("read err = %v, want unexpected EOF", rerr)
		}
		if string(data) != "01234567" {
			t.Errorf("got prefix %q, want the first half", data)
		}
	})

	t.Run("summary names what fired", func(t *testing.T) {
		tr := NewTransport(Plan{Faults: []Fault{{Kind: KindRefuse}}}, okBody(200, "{}", nil))
		if got := tr.Summary(); got != "none" {
			t.Errorf("idle summary %q", got)
		}
		tr.RoundTrip(mustReq(t, "/x"))
		if got := tr.Summary(); got != "refuse=1" {
			t.Errorf("summary %q, want refuse=1", got)
		}
	})
}

// TestTransportAgainstRealServer sanity-checks the transport in a real
// http.Client against httptest — the exact wiring the worker uses.
func TestTransportAgainstRealServer(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	// Fault only the second request.
	plan := Plan{Faults: []Fault{{Kind: KindDropResponse, Start: 2, Length: 1}}}
	tr := NewTransport(plan, nil)
	client := &http.Client{Transport: tr}

	if resp, err := client.Post(ts.URL+"/r", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatalf("request 1: %v", err)
	} else {
		resp.Body.Close()
	}
	if _, err := client.Post(ts.URL+"/r", "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("request 2 should have lost its response")
	}
	if resp, err := client.Post(ts.URL+"/r", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatalf("request 3: %v", err)
	} else {
		resp.Body.Close()
	}
	if served.Load() != 3 {
		t.Errorf("server saw %d requests, want 3 (drop-response still commits)", served.Load())
	}
}
