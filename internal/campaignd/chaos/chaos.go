// Package chaos is the network-layer counterpart of internal/faults: a
// deterministic, seedable fault-injecting http.RoundTripper that
// disturbs the campaignd wire protocol according to a declarative Plan.
//
// internal/faults makes *probe-stream* disturbance first-class so the
// attack core's recovery can be measured as a curve; this package does
// the same for the *distributed* stack. The failure modes it models are
// the ones real fleets hit — a coordinator that is down or restarting
// (refuse), congested links (delay), requests lost before the server
// sees them (drop-request), responses lost after the server committed
// (drop-response — the classic at-least-once hazard), overloaded or
// crashing servers (5xx), and connections cut mid-body (truncate).
// Because the coordinator's merge is byte-deterministic and its
// ingestion is idempotent, the merged output under any chaos plan must
// be byte-identical to a fault-free single-process run; that contract
// is the oracle every chaos test and the churn soak assert.
//
// Determinism contract: the decision for the n-th request matching a
// fault's path filter is drawn from a private generator seeded with
// rng.Derive(plan seed, n) — the same random-access discipline as
// faults.Plan. Requests are numbered per URL path, so an interleaved
// heartbeat never shifts the fault sequence seen by the results path.
// With a single in-flight caller per path the injection sequence is
// exactly replayable; under concurrency the per-path numbering still
// pins which request ordinals fault, independent of wall time.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind names a network fault class. The strings are part of the -chaos
// flag syntax and the plan-file schema.
type Kind string

const (
	// KindRefuse fails the round-trip before any bytes leave the
	// client: a connection refused (coordinator down or not yet
	// listening). The server never sees the request.
	KindRefuse Kind = "refuse"
	// KindDelay holds the request for DelayMS milliseconds before
	// forwarding it — congestion, a GC pause, a slow link. The request
	// still completes normally.
	KindDelay Kind = "delay"
	// KindDropRequest loses the request on the wire: the server never
	// sees it and the client gets a transport error. Indistinguishable
	// from refuse at the server, but distinguishable in what the
	// failure means: the work was NOT committed.
	KindDropRequest Kind = "drop-request"
	// KindDropResponse forwards the request — the server fully
	// processes and commits it — then loses the response. The client
	// sees a transport error for a call that *succeeded* server-side:
	// the at-least-once hazard that makes idempotent replay mandatory.
	KindDropResponse Kind = "drop-response"
	// Kind5xx fabricates a server-error response (Status, default 503)
	// without forwarding; the server never sees the request.
	Kind5xx Kind = "5xx"
	// KindTruncate forwards the request, then cuts the response body
	// off halfway — the read side sees an unexpected EOF after the
	// server committed. Like drop-response but failing mid-decode
	// rather than mid-transport.
	KindTruncate Kind = "truncate"
)

// Kinds lists every known fault kind, sorted, for error messages and
// flag docs.
func Kinds() []string {
	ks := []string{
		string(KindRefuse), string(KindDelay), string(KindDropRequest),
		string(KindDropResponse), string(Kind5xx), string(KindTruncate),
	}
	sort.Strings(ks)
	return ks
}

// Fault is one declarative network fault: a kind, an optional path
// filter, a window over the per-path request counter, and
// kind-specific parameters. The window semantics mirror faults.Fault:
// Start is 1-based, Length 0 means open-ended, Period repeats the
// window start-to-start.
type Fault struct {
	Kind Kind `json:"kind"`
	// Path restricts the fault to requests whose URL path has this
	// prefix (e.g. campaignd.PathResults); empty matches every request.
	Path string `json:"path,omitempty"`
	// Start is the first matching request (1-based) the fault affects.
	// 0 is normalized to 1.
	Start uint64 `json:"start,omitempty"`
	// Length is the window size in requests. 0 means open-ended.
	Length uint64 `json:"length,omitempty"`
	// Period repeats the window every Period requests. 0 fires the
	// window once. Period must be >= Length when both are set.
	Period uint64 `json:"period,omitempty"`
	// Probability is the per-request chance the fault fires inside its
	// window (0 is normalized to 1 = always).
	Probability float64 `json:"probability,omitempty"`
	// DelayMS is the hold time for delay faults, in milliseconds.
	DelayMS int `json:"delay_ms,omitempty"`
	// Status is the fabricated status code for 5xx faults (default
	// 503).
	Status int `json:"status,omitempty"`
}

// active reports whether the fault's window covers the n-th matching
// request (1-based) — the same windowing arithmetic as faults.Fault.
func (f Fault) active(n uint64) bool {
	start := f.Start
	if start == 0 {
		start = 1
	}
	if n < start {
		return false
	}
	off := n - start
	if f.Period > 0 {
		off %= f.Period
	}
	return f.Length == 0 || off < f.Length
}

// prob returns the normalized per-request firing probability.
func (f Fault) prob() float64 {
	if f.Probability == 0 {
		return 1
	}
	return f.Probability
}

// matches reports whether the fault applies to a request path.
func (f Fault) matches(path string) bool {
	return f.Path == "" || strings.HasPrefix(path, f.Path)
}

// Validate checks one fault's shape.
func (f Fault) Validate() error {
	switch f.Kind {
	case KindRefuse, KindDropRequest, KindDropResponse, KindTruncate:
	case KindDelay:
		if f.DelayMS <= 0 {
			return fmt.Errorf("chaos: delay fault needs ms > 0")
		}
	case Kind5xx:
		if f.Status != 0 && (f.Status < 500 || f.Status > 599) {
			return fmt.Errorf("chaos: 5xx fault status %d outside [500,599]", f.Status)
		}
	default:
		return fmt.Errorf("chaos: unknown fault kind %q (known: %s)", f.Kind, strings.Join(Kinds(), ", "))
	}
	// NaN fails every comparison: it would validate, print as "always",
	// and never fire.
	if math.IsNaN(f.Probability) || f.Probability < 0 || f.Probability > 1 {
		return fmt.Errorf("chaos: %s probability %v outside [0,1]", f.Kind, f.Probability)
	}
	if f.DelayMS < 0 || f.Status < 0 {
		return fmt.Errorf("chaos: %s has a negative ms or status", f.Kind)
	}
	if f.Period > 0 && f.Length > f.Period {
		return fmt.Errorf("chaos: %s window length %d exceeds period %d", f.Kind, f.Length, f.Period)
	}
	return nil
}

// String renders the fault in the compact flag syntax.
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(string(f.Kind))
	if f.Path != "" {
		fmt.Fprintf(&b, ":path=%s", f.Path)
	}
	if f.Start > 0 {
		fmt.Fprintf(&b, ":start=%d", f.Start)
	}
	if f.Length > 0 {
		fmt.Fprintf(&b, ":len=%d", f.Length)
	}
	if f.Period > 0 {
		fmt.Fprintf(&b, ":period=%d", f.Period)
	}
	if f.Probability > 0 {
		fmt.Fprintf(&b, ":p=%g", f.Probability)
	}
	if f.DelayMS > 0 {
		fmt.Fprintf(&b, ":ms=%d", f.DelayMS)
	}
	if f.Status > 0 {
		fmt.Fprintf(&b, ":status=%d", f.Status)
	}
	return b.String()
}

// Plan is a seed plus an ordered fault list. For each request, faults
// are consulted in order and the first one that fires wins — the same
// first-match composition as faults.Plan, so a plan reads top to
// bottom.
type Plan struct {
	Seed   uint64  `json:"seed"`
	Faults []Fault `json:"faults"`
}

// String renders the plan in the compact flag syntax.
func (p Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the compact -chaos flag syntax: a comma-separated
// fault list, each fault a colon-separated kind plus key=value
// parameters:
//
//	drop-response:path=/api/v1/results:p=0.2
//	delay:ms=40:p=0.5,5xx:status=503:start=10:len=5:period=50
//
// Keys: path, start, len, period, p, ms, status. The seed is supplied
// separately (it is an operator knob, not part of the scenario shape).
func ParsePlan(spec string, seed uint64) (Plan, error) {
	p := Plan{Seed: seed}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		f := Fault{Kind: Kind(fields[0])}
		for _, kv := range fields[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Plan{}, fmt.Errorf("chaos: fault %q: parameter %q is not key=value", part, kv)
			}
			val = strings.TrimSpace(val) // a fault's last value is trimmed with the fault; trim all alike
			var err error
			switch key {
			case "path":
				f.Path = val
			case "start":
				f.Start, err = strconv.ParseUint(val, 10, 64)
			case "len":
				f.Length, err = strconv.ParseUint(val, 10, 64)
			case "period":
				f.Period, err = strconv.ParseUint(val, 10, 64)
			case "p":
				f.Probability, err = strconv.ParseFloat(val, 64)
			case "ms":
				f.DelayMS, err = strconv.Atoi(val)
			case "status":
				f.Status, err = strconv.Atoi(val)
			default:
				return Plan{}, fmt.Errorf("chaos: fault %q: unknown parameter %q", part, key)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("chaos: fault %q: parameter %q: %v", part, kv, err)
			}
		}
		if err := f.Validate(); err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}
