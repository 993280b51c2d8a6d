package soc

import (
	"context"
	"runtime"
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

// TestPanickingRaceFailsTheJob: a race step that panics unwinds out of
// the session on the goroutine running it, so a campaign job running it
// becomes a Failed result carrying the panic instead of aborting the Go
// process, and the next race is unaffected.
func TestPanickingRaceFailsTheJob(t *testing.T) {
	boom := &SingleSoC{newPlatform(testKey, DefaultParams(10), func(s *session) {
		waited := false
		s.k.Go(func() (sim.Time, bool) {
			if !waited {
				s.cache.Access(s.table.Base)
				waited = true
				return 1, false
			}
			panic("attacker: boom")
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

// TestEarliestProbeRoundStartsNoGoroutine: a race's actors are steps
// the kernel calls on the goroutine running the session, so the
// goroutine count read inside the race, from its start until the
// attacker stands down, is the count before EarliestProbeRound was
// called. A goroutine of an earlier test may still be exiting, so a
// measurement across which the count moved is taken again.
func TestEarliestProbeRoundStartsNoGoroutine(t *testing.T) {
	for _, r := range []struct {
		name string
		race func(s *session)
	}{{"single", singleRace}, {"mpsoc", mpsocRace}} {
		for attempt := 1; ; attempt++ {
			var seen []int
			p := &SingleSoC{newPlatform(testKey, DefaultParams(10), func(s *session) {
				r.race(s)
				s.k.Go(func() (sim.Time, bool) {
					seen = append(seen, runtime.NumGoroutine())
					return 100 * sim.Microsecond, s.standDown
				})
			})}
			before := runtime.NumGoroutine()
			if got := p.EarliestProbeRound(); got == 0 {
				t.Fatalf("%s: the race recorded no window", r.name)
			}
			if runtime.NumGoroutine() != before && attempt < 10 {
				continue
			}
			if len(seen) < 2 {
				t.Fatalf("%s: goroutines read %d times inside the race, want at least 2", r.name, len(seen))
			}
			for _, n := range seen {
				if n != before {
					t.Fatalf("%s: %d goroutines inside the race, %d before it", r.name, n, before)
				}
			}
			break
		}
	}
}
