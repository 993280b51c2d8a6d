package soc

import (
	"context"
	"strings"
	"testing"

	"grinch/internal/cache"
	"grinch/internal/campaign"
	"grinch/internal/obs"
	"grinch/internal/sim"
)

// TestSessionCacheFitsLineSize: a pooled cache is handed out only to a
// session of its own line size, and always emptied.
func TestSessionCacheFitsLineSize(t *testing.T) {
	c := sessionCache(1)
	c.Access(0)
	sessionCaches.Put(c)
	if got := sessionCache(8).Config().LineBytes; got != 8 {
		t.Fatalf("session cache for 8-byte lines has %d-byte lines", got)
	}
	sessionCaches.Put(c) // the 8-byte session took c out and dropped it
	if c := sessionCache(1); c.Stats() != (cache.Stats{}) || c.Contains(0) {
		t.Fatalf("session cache not emptied: %+v", c.Stats())
	}
}

// TestPanickingRaceFailsTheJob: a race whose process panics surfaces
// the panic on the goroutine running the session, so a campaign job
// running it becomes a Failed result naming the process instead of
// aborting the Go process, and the next race is unaffected.
func TestPanickingRaceFailsTheJob(t *testing.T) {
	boom := &SingleSoC{newPlatform(testKey, DefaultParams(10), func(s *session) {
		s.k.Spawn("attacker", func(p *sim.Proc) {
			s.cache.Access(s.table.Base)
			p.Wait(1)
			panic("boom")
		})
	})}
	exec := func(campaign.Job, obs.Tracer) (campaign.Measurement, error) {
		return campaign.Measurement{Round: boom.EarliestProbeRound()}, nil
	}
	var results []campaign.Result
	err := campaign.ExecuteJobs(context.Background(), []campaign.Job{{Index: 0}}, exec, 1, func(r campaign.Result) error {
		results = append(results, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Failed || !strings.Contains(results[0].Err, "attacker") || !strings.Contains(results[0].Err, "boom") {
		t.Fatalf("results %+v, want one Failed result naming the attacker's panic", results)
	}
	if got := NewSingleSoC(testKey, DefaultParams(10)).EarliestProbeRound(); got != 2 {
		t.Fatalf("earliest probe round after a panicked race %d, want 2", got)
	}
}
