package probe

import (
	"grinch/internal/obs/metrics"
)

// Meter carries the probe layer's pre-resolved instruments, labeled by
// primitive ("flush_reload", "prime_probe"). A nil Meter is fully
// inert — each emission is one nil check, matching the nil-tracer cost
// model — so channels simply leave the field unset when metrics are
// disabled.
type Meter struct {
	ops          *metrics.Counter
	observations *metrics.Counter
	cycles       *metrics.Counter
}

// NewMeter resolves the probe instrument set for one primitive. Returns
// nil (the disabled meter) when r is nil.
func NewMeter(r *metrics.Registry, primitive string) *Meter {
	if r == nil {
		return nil
	}
	p := metrics.L("primitive", primitive)
	return &Meter{
		ops: r.Counter("grinch_probe_ops_total",
			"Probe primitive operations (flush/prime setup passes).", p),
		observations: r.Counter("grinch_probe_observations_total",
			"Probe observation passes (reload/probe reads).", p),
		cycles: r.Counter("grinch_probe_cycles_total",
			"Simulated cycles spent inside probe primitives.", p),
	}
}

// Op accounts one setup pass (flush or prime) and its cycle cost.
func (m *Meter) Op(cycles uint64) {
	if m == nil {
		return
	}
	m.ops.Inc()
	m.cycles.Add(cycles)
}

// Observe accounts one observation pass (reload or probe) and its
// cycle cost.
func (m *Meter) Observe(cycles uint64) {
	if m == nil {
		return
	}
	m.observations.Inc()
	m.cycles.Add(cycles)
}
