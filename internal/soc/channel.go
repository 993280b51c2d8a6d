package soc

import (
	"grinch/internal/cache"
	"grinch/internal/obs"
	"grinch/internal/probe"
)

// Platform is the common surface of SingleSoC and MPSoC.
type Platform interface {
	// RunSession encrypts pt on the platform under attacker probing.
	RunSession(pt uint64) Session
	// RunSessionUntil is RunSession with probing stopped (and the
	// remaining victim rounds fast-forwarded) once the probe windows
	// cover probeUntilRound; with 0, after the first window.
	RunSessionUntil(pt uint64, probeUntilRound int) Session
	// Table locates the victim's S-box table.
	Table() probe.TableLayout
	// Sessions counts victim encryptions so far.
	Sessions() uint64
	// EarliestProbeRound reports where the first probe lands (Table II),
	// standing the race down after that first window.
	EarliestProbeRound() int
}

var (
	_ Platform = (*SingleSoC)(nil)
	_ Platform = (*MPSoC)(nil)
)

// PlatformChannel adapts a platform to the attack's probe.Channel: each
// Collect runs a full platform session and returns the union of the
// probe windows covering the target's signal round. The window width —
// and therefore the channel's noise — is dictated by the platform's
// real scheduling and interconnect timing rather than by an oracle
// parameter.
type PlatformChannel struct {
	P Platform
	// LineBytes must match the platform's cache line size.
	LineBytes int
	// Tracer, when set, receives encryption boundaries, one
	// probe_observation per probe window, a sim_time event carrying the
	// virtual timestamp of the session's last probe — the sim-kernel
	// clock, never wall time — and a cache_snapshot with the shared
	// cache's counters accumulated across sessions.
	Tracer obs.Tracer

	// stats accumulates the per-session cache counters (each session
	// runs on an emptied, reused cache) so snapshots are cumulative,
	// matching the persistent-cache channels.
	stats cache.Stats
}

// Lines returns the number of cache lines the table spans.
func (c *PlatformChannel) Lines() int {
	return c.P.Table().LinesIn(c.LineBytes)
}

// Encryptions returns the victim's total encryptions.
func (c *PlatformChannel) Encryptions() uint64 { return c.P.Sessions() }

// Collect runs one probed encryption and extracts the observation
// relevant to targetRound: the S-box accesses of round targetRound+1.
// Probing stops once that round is fully covered, so campaigns scale
// with the target depth rather than the full encryption length.
func (c *PlatformChannel) Collect(pt uint64, targetRound int) probe.LineSet {
	if c.Tracer != nil {
		c.Tracer.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: c.P.Sessions() + 1, Cipher: "GIFT-64", Round: targetRound})
	}
	sess := c.P.RunSessionUntil(pt, targetRound+1)
	set := windowsCovering(sess.Windows, targetRound+1)
	c.stats.Add(sess.CacheStats)
	if c.Tracer != nil {
		enc := c.P.Sessions()
		for _, w := range sess.Windows {
			c.Tracer.Emit(obs.Event{
				Kind:  obs.KindProbeObservation,
				Enc:   enc,
				Round: w.FirstRound,
				Lines: uint64(w.Set),
			})
		}
		if n := len(sess.Windows); n > 0 {
			c.Tracer.Emit(obs.Event{Kind: obs.KindSimTime, Enc: enc, SimPS: uint64(sess.Windows[n-1].At)})
		}
		snap := probe.CacheSnapshot(c.stats)
		snap.Enc = enc
		c.Tracer.Emit(snap)
		c.Tracer.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: enc})
	}
	return set
}

var _ probe.Channel = (*PlatformChannel)(nil)
