// Command campaignw is a distributed campaign worker: it pulls shard
// leases from a campaignd coordinator, executes the shard's attack
// jobs on a local worker pool, and streams result batches back, until
// stopped or (with -drain) until the coordinator reports every
// campaign merged.
//
// Usage:
//
//	campaignw -server http://127.0.0.1:8844            # keep pulling forever
//	campaignw -server http://host:8844 -id rack3 -drain
//	campaignw -server http://host:8844 -workers 8 -batch 32
//
// Determinism: a worker adds no entropy. Job seeds derive from the
// campaign seed and job index, each lease's range of the job grid is
// expanded locally from the spec it carries, and the coordinator keeps
// only the canonical (timing-free) line of each reported result — so
// any fleet of campaignw processes produces the same merged bytes as a
// single cmd/campaign run.
//
// Crash behaviour: a killed worker simply stops heartbeating; its
// lease expires on the coordinator and the shard re-issues with the
// already-reported results intact. Restarting the worker (same or
// different -id) resumes from the remainder.
//
// Chaos drills: -chaos installs a deterministic fault-injecting
// transport between this worker and the coordinator (DESIGN.md §16),
// e.g.
//
//	campaignw -server http://host:8844 -drain \
//	  -chaos 'drop-response:path=/api/v1/results:p=0.1,delay:ms=20:p=0.3' \
//	  -chaos-seed 7
//
// The merged output must still be byte-identical to a fault-free run —
// scripts/ci_chaos.sh drills exactly that.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"grinch/internal/campaignd/chaos"
	"grinch/internal/campaignd/worker"
	"grinch/internal/experiments"
)

func main() {
	var (
		server  = flag.String("server", "http://127.0.0.1:8844", "campaignd coordinator base URL")
		id      = flag.String("id", "", "worker identity (default host:pid)")
		workers = flag.Int("workers", 0, "local pool size (0 = GOMAXPROCS)")
		batch   = flag.Int("batch", worker.DefaultBatch, "results per report batch")
		poll    = flag.Duration("poll", worker.DefaultPoll, "idle sleep between lease attempts")
		drain   = flag.Bool("drain", false, "exit once the coordinator reports all campaigns merged")
		quiet   = flag.Bool("quiet", false, "suppress operator logs on stderr")

		chaosSpec = flag.String("chaos", "", "fault-injection plan, e.g. 'drop-response:path=/api/v1/results:p=0.1,delay:ms=20' (kinds: "+strings.Join(chaos.Kinds(), ", ")+")")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the fault-injection plan's deterministic decisions")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}

	wid := *id
	if wid == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		wid = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "campaignw: "+format+"\n", args...)
		}
	}

	var transport *chaos.Transport
	if *chaosSpec != "" {
		plan, err := chaos.ParsePlan(*chaosSpec, *chaosSeed)
		if err != nil {
			fatalf("-chaos: %v", err)
		}
		transport = chaos.NewTransport(plan, nil)
		transport.Logf = logf
		logf("chaos plan armed (seed %d): %s", *chaosSeed, plan)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := worker.Config{
		Server:  *server,
		ID:      wid,
		Exec:    experiments.Execute,
		Workers: *workers,
		Batch:   *batch,
		Poll:    *poll,
		Drain:   *drain,
		Logf:    logf,
	}
	if transport != nil {
		cfg.Transport = transport
	}
	err := worker.Run(ctx, cfg)
	if transport != nil {
		logf("chaos injections: %s", transport.Summary())
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		logf("interrupted; lease (if any) will expire and re-issue in the coordinator")
		os.Exit(130)
	default:
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignw: "+format+"\n", args...)
	os.Exit(1)
}
