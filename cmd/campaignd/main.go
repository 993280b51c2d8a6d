// Command campaignd is the distributed campaign coordinator: a
// long-running HTTP service that accepts campaign specs, partitions
// each job grid into contiguous shards, leases shards to cmd/campaignw
// workers, journals ingested results per shard, and merges completed
// campaigns into the same byte-deterministic JSONL/CSV output
// cmd/campaign writes.
//
// Usage:
//
//	campaignd -addr :8844 -data campaignd.data           # serve, wait for submits
//	campaignd -addr :8844 -data d -out t1.jsonl table1   # submit a preset at boot
//	campaignd -spec sweep.json -out s.jsonl -csv s.csv -exit-when-done
//	curl -s localhost:8844/status                        # shard board
//	curl -s localhost:8844/api/v1/campaigns              # JSON statuses
//
// Campaigns can be submitted three ways: a preset name or -spec file
// at boot (same presets and spec format as cmd/campaign), or POST
// /api/v1/campaigns at any time with {"spec": {...}, "shard_size": N,
// "out": "path.jsonl", "csv": "path.csv"}. Relative output paths land
// in the campaign's data directory when -data is set.
//
// Determinism: merged output is byte-identical to a single-process
// `campaign` run of the same spec, for any number of workers, any
// shard size, and any node-loss history — per-job seeds derive from
// the job index and only canonical (timing-free) results are
// journaled and merged. CI asserts this end to end.
//
// Fault tolerance: with -data, every ingested result is journaled
// per shard; killed workers' shards re-issue after -lease-ttl with
// their ingested prefix intact, and a restarted coordinator recovers
// every campaign from its journals.
//
// The status page at /status shows shard states, jobs/sec and workers
// seen; /metrics serves the Prometheus text exposition (coordinator
// counters plus per-worker campaignw_* series aggregated from
// heartbeat deltas, DESIGN.md §14); /api/v1/status returns the same
// fleet view as JSON with per-shard latency quantiles — both read off
// the one registry of coordinator series; /debug/vars (expvar's
// memstats and cmdline) and /debug/pprof are built in — the
// -debug-addr endpoint of cmd/campaign, grown into the service.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
	"grinch/internal/experiments"
)

func main() {
	var (
		addr         = flag.String("addr", ":8844", "listen address")
		dataDir      = flag.String("data", "", "persistence directory (shard journals + recovery); empty = memory-only")
		leaseTTL     = flag.Duration("lease-ttl", campaignd.DefaultLeaseTTL, "shard lease time-to-live without a heartbeat")
		shardSize    = flag.Int("shard-size", campaignd.DefaultShardSize, "default max jobs per shard")
		specPath     = flag.String("spec", "", "campaign spec JSON file to submit at boot (alternative to a preset name)")
		trials       = flag.Int("trials", 3, "trials per grid cell (boot presets only)")
		budget       = flag.Uint64("budget", 1_000_000, "per-attack encryption budget (boot presets only)")
		seed         = flag.Uint64("seed", 2021, "campaign seed (boot presets only)")
		outPath      = flag.String("out", "", "merged JSONL path for the boot-submitted campaign")
		csvPath      = flag.String("csv", "", "merged CSV path for the boot-submitted campaign")
		exitWhenDone = flag.Bool("exit-when-done", false, "shut down once every submitted campaign has merged")
		quiet        = flag.Bool("quiet", false, "suppress operator logs on stderr")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
		}
	}

	allMerged := make(chan struct{}, 1)
	srv, err := campaignd.NewServer(campaignd.Options{
		DataDir:   *dataDir,
		LeaseTTL:  *leaseTTL,
		ShardSize: *shardSize,
		Logf:      logf,
		OnAllMerged: func() {
			select {
			case allMerged <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer srv.Close()

	if *specPath != "" || flag.NArg() == 1 {
		spec, err := bootSpec(*specPath, experiments.Options{Trials: *trials, Budget: *budget, Seed: *seed})
		if err != nil {
			fatalf("%v", err)
		}
		resp, err := srv.Submit(campaignd.SubmitRequest{
			Spec: spec, ShardSize: *shardSize, Out: *outPath, CSV: *csvPath,
		})
		if err != nil {
			fatalf("submitting boot campaign: %v", err)
		}
		logf("boot campaign %s: %d jobs in %d shards", resp.ID, resp.Jobs, resp.Shards)
	} else if flag.NArg() > 1 {
		fatalf("at most one preset argument (fig3, table1, table2, recovery); got %v", flag.Args())
	} else if *exitWhenDone {
		fatalf("-exit-when-done needs a boot campaign (preset or -spec); an idle server would never exit")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logf("listening on %s (status page at /status)", *addr)

	var mergedCh chan struct{}
	if *exitWhenDone {
		mergedCh = allMerged
	}
	select {
	case <-ctx.Done():
		logf("shutting down")
	case <-mergedCh:
		logf("all campaigns merged; shutting down")
	case err := <-errCh:
		fatalf("%v", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("shutdown: %v", err)
	}
}

// bootSpec loads the boot campaign's spec from -spec or a preset name.
func bootSpec(path string, opt experiments.Options) (campaign.Spec, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return campaign.Spec{}, err
		}
		return campaign.ParseSpec(data)
	}
	return experiments.SpecByName(flag.Arg(0), opt)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
	os.Exit(1)
}
