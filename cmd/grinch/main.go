// Command grinch runs the GRINCH attack end to end against a simulated
// victim and prints the recovered key next to the truth.
//
// Usage:
//
//	grinch                           # ideal channel, random key
//	grinch -key <32 hex>             # attack a specific key
//	grinch -probe-round 3 -no-flush  # degraded probing conditions
//	grinch -line-words 2             # wide cache lines (hypothesis mode)
//	grinch -platform mpsoc -mhz 50   # attack over the full MPSoC model
//	grinch -first-round-only         # the Fig.3/Table I metric
//	grinch -json                     # machine-readable result record
//	grinch -trace run.trace.jsonl    # record the attack's event trace
//	grinch -faults plan.json         # inject structured channel faults
//	grinch -metrics run.prom         # dump attack/probe metrics at exit
//
// With -faults the observation channel is wrapped in a deterministic
// fault injector (internal/faults): the JSON plan declares burst noise,
// dropped windows, probe misalignment and transient failures, and the
// attack runs with quarantine and bounded restarts enabled so it
// degrades to a partial result instead of failing outright.
//
// With -json the run emits a single JSON object on stdout in the same
// schema as a campaign job result (internal/campaign.Result), so one-off
// runs and campaign sweeps land in the same analysis pipeline.
//
// With -trace the attack's internal trajectory — encryption boundaries,
// probe observations, candidate-set updates, segment recoveries — is
// streamed as JSONL events (internal/obs format) to the given file;
// render it with cmd/traceview. The trace carries encryption counters
// and simulated time only, never wall-clock readings, so it is
// byte-reproducible for a fixed seed.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"grinch/internal/bitutil"
	"grinch/internal/campaign"
	"grinch/internal/core"
	"grinch/internal/faults"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
	"grinch/internal/probe"
	"grinch/internal/rng"
	"grinch/internal/soc"
)

func main() {
	os.Exit(run())
}

// run is main's body with an exit code instead of os.Exit calls, so
// deferred work — the trace flush and the -metrics dump — runs on
// every exit path, success or failure.
func run() int {
	var (
		keyHex     = flag.String("key", "", "victim key (32 hex digits; random when empty)")
		seed       = flag.Uint64("seed", 1, "seed for plaintext randomization and key generation")
		probeRound = flag.Int("probe-round", 1, "cache probing round (oracle channel)")
		noFlush    = flag.Bool("no-flush", false, "disable the attacker's flush (noisier channel)")
		lineWords  = flag.Int("line-words", 1, "table entries per cache line (1, 2, 4, 8)")
		platform   = flag.String("platform", "oracle", "observation channel: oracle, soc or mpsoc")
		primitive  = flag.String("primitive", "flush-reload", "single-SoC probing primitive: flush-reload or prime-probe")
		mhz        = flag.Uint64("mhz", 10, "platform clock for -platform soc/mpsoc")
		budget     = flag.Uint64("budget", 1_000_000, "abort after this many victim encryptions")
		firstOnly  = flag.Bool("first-round-only", false, "recover only the 32 first-round key bits")
		threshold  = flag.Float64("threshold", 1.0, "candidate survival ratio (1 = strict intersection)")
		verbose    = flag.Bool("v", false, "print per-segment elimination progress")
		jsonOut    = flag.Bool("json", false, "emit one campaign-result JSON record instead of text")
		tracePath  = flag.String("trace", "", "JSON-lines event-trace file (internal/obs format; render with traceview)")
		faultsPath = flag.String("faults", "", "fault-plan JSON file (internal/faults schema); injects deterministic structured faults into the channel")
		promPath   = flag.String("metrics", "", "write the attack's metrics registry as Prometheus text exposition to this file at exit (\"-\" for stderr)")
	)
	flag.Parse()

	var tracer obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		w := obs.NewWriter(f)
		tracer = w
		defer func() {
			if err := w.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "grinch: flushing trace: %v\n", err)
			}
			f.Close()
		}()
	}

	var reg *metrics.Registry
	if *promPath != "" {
		// Without -metrics the registry stays nil and every emission
		// point in the attack and probe layers takes its zero-cost
		// branch.
		reg = metrics.New()
		defer func() {
			out := os.Stderr
			if *promPath != "-" {
				f, err := os.Create(*promPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "grinch: %v\n", err)
					return
				}
				defer f.Close()
				out = f
			}
			if err := metrics.WriteProm(out, reg.Snapshot()); err != nil {
				fmt.Fprintf(os.Stderr, "grinch: writing -metrics: %v\n", err)
			}
		}()
	}

	r := rng.New(*seed)
	var key bitutil.Word128
	if *keyHex == "" {
		key = bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
	} else {
		b, err := hex.DecodeString(*keyHex)
		if err != nil || len(b) != 16 {
			fatalf("bad -key: need 32 hex digits")
		}
		var arr [16]byte
		copy(arr[:], b)
		key = bitutil.Word128FromBytes(arr)
	}

	ch, err := buildChannel(key, *platform, *primitive, *mhz, *probeRound, !*noFlush, *lineWords, r.Uint64(), tracer, reg)
	if err != nil {
		fatalf("%v", err)
	}

	var inj *faults.Injector
	if *faultsPath != "" {
		data, err := os.ReadFile(*faultsPath)
		if err != nil {
			fatalf("%v", err)
		}
		plan, err := faults.ParsePlan(data)
		if err != nil {
			fatalf("%v", err)
		}
		inj = faults.NewInjector(ch, plan, *seed)
		inj.SetTracer(tracer)
		ch = inj
	}

	cfg := core.Config{
		Seed:        r.Uint64(),
		TotalBudget: *budget,
		Threshold:   *threshold,
		Tracer:      tracer,
		Metrics:     reg,
	}
	if inj != nil && !inj.Plan().Empty() {
		// A faulted channel gets the robustness defaults: retry
		// transient failures a few times, discard degenerate
		// observations, and allow bounded per-target restarts.
		cfg.Retry = core.RetryPolicy{MaxAttempts: 3, BackoffPS: 1000}
		cfg.Quarantine = true
		cfg.MaxRestarts = 2
	}
	if *verbose {
		cfg.Progress = func(cipher string, round, segment int, converged bool, line int, obs uint64) {
			status := "✓"
			if !converged {
				status = "✗"
			}
			fmt.Printf("  %s round %d segment %2d: line %2d after %d observations %s\n",
				cipher, round, segment, line, obs, status)
		}
	}
	attacker, err := core.NewAttacker(ch, cfg)
	if err != nil {
		fatalf("%v", err)
	}

	// record mirrors a campaign job result so a single run slots into
	// the same analysis pipeline as a sweep (schema of
	// internal/campaign.Result; job index 0 of a one-job grid).
	record := campaign.Result{
		Point: campaign.Point{
			Kind:       "recovery",
			Platform:   *platform,
			MHz:        *mhz,
			LineWords:  *lineWords,
			Flush:      !*noFlush,
			ProbeRound: *probeRound,
		},
		Seed: *seed,
	}
	if *firstOnly {
		record.Point.Kind = "first-round"
	}
	if inj != nil {
		record.Point.Fault = inj.Plan().Name
	}

	kb := key.Bytes()
	if !*jsonOut {
		fmt.Printf("victim key:      %x\n", kb)
		fmt.Printf("channel:         %s (probe round %d, flush %v, %d-word lines, %d observable lines)\n",
			*platform, *probeRound, !*noFlush, *lineWords, ch.Lines())
	}

	start := time.Now() //grinchvet:ignore wallclock CLI wall-time reporting only
	if *firstOnly {
		out, err := attacker.AttackRound(1, nil, nil)
		record.DurationNS = time.Since(start).Nanoseconds() //grinchvet:ignore wallclock CLI wall-time reporting only
		record.Retries = attacker.Retries()
		if inj != nil {
			record.Faults = inj.Stats().Total()
			record.Reason = core.Reason(err)
		}
		if err != nil {
			if *jsonOut {
				record.Encryptions = attacker.Encryptions()
				record.DroppedOut = true
				emitJSON(record)
				return 1
			}
			fmt.Fprintf(os.Stderr, "grinch: first-round attack failed: %v\n", err)
			return 1
		}
		want := gift.ExpandKey64(key)[0]
		record.Encryptions = out.Encryptions
		if rk, ok := out.Unique(); ok {
			record.Correct = rk.U == want.U && rk.V == want.V
			if *jsonOut {
				emitJSON(record)
				return 0
			}
			status := "MATCH"
			//grinchvet:ignore secret-branch ground-truth verification of the recovered key
			if !record.Correct {
				status = "MISMATCH"
			}
			//grinchvet:ignore wallclock CLI wall-time reporting only
			fmt.Printf("first-round attack: %d encryptions, %v wall time\n", out.Encryptions, time.Since(start).Round(time.Millisecond))
			fmt.Printf("recovered rk1:   U=%04x V=%04x (%s)\n", rk.U, rk.V, status)
		} else {
			if *jsonOut {
				emitJSON(record)
				return 0
			}
			//grinchvet:ignore wallclock CLI wall-time reporting only
			fmt.Printf("first-round attack: %d encryptions, %v wall time\n", out.Encryptions, time.Since(start).Round(time.Millisecond))
			fmt.Printf("recovered rk1 with per-segment candidates (wide lines): %v\n", out.Cands)
		}
		return 0
	}

	var (
		res     core.KeyResult
		partial *core.PartialResult
	)
	if inj != nil {
		// Under fault injection the attack degrades gracefully: a failed
		// run still reports which round keys and segments were recovered.
		res, partial = attacker.RecoverKeyGraceful()
		record.Faults = inj.Stats().Total()
	} else {
		res, err = attacker.RecoverKey()
	}
	record.DurationNS = time.Since(start).Nanoseconds() //grinchvet:ignore wallclock CLI wall-time reporting only
	record.Retries = attacker.Retries()
	if partial != nil {
		record.Encryptions = partial.Encryptions
		record.DroppedOut = true
		record.Partial = true
		record.Reason = partial.Reason
		record.ResolvedRounds = partial.ResolvedRounds
		record.SegmentsConverged = partial.Converged()
		record.Confidence = partial.Confidence()
		if *jsonOut {
			emitJSON(record)
			return 1
		}
		fmt.Printf("partial result:  %s after %d encryptions (%d faults injected)\n",
			partial.Reason, partial.Encryptions, record.Faults)
		fmt.Printf("                 %d round keys resolved; %d/%d segments of the next round converged (mean confidence %.2f)\n",
			partial.ResolvedRounds, partial.Converged(), len(partial.Segments), partial.Confidence())
		return 1
	}
	if err != nil {
		if *jsonOut {
			record.Encryptions = attacker.Encryptions()
			record.DroppedOut = true
			emitJSON(record)
			return 1
		}
		fmt.Fprintf(os.Stderr, "grinch: attack failed after %d encryptions: %v\n", attacker.Encryptions(), err)
		return 1
	}
	record.Encryptions = res.Encryptions
	record.Correct = res.Key == key
	if *jsonOut {
		emitJSON(record)
		//grinchvet:ignore secret-branch ground-truth verification of the recovered key
		if !record.Correct {
			return 1
		}
		return 0
	}
	rb := res.Key.Bytes()
	fmt.Printf("recovered key:   %x\n", rb)
	fmt.Printf("encryptions:     %d (paper: <400 under ideal conditions)\n", res.Encryptions)
	fmt.Printf("round passes:    %d\n", res.RoundsAttacked)
	//grinchvet:ignore wallclock CLI wall-time reporting only
	fmt.Printf("wall time:       %v\n", time.Since(start).Round(time.Millisecond))
	if res.Key == key {
		fmt.Println("result:          FULL KEY RECOVERED")
	} else {
		fmt.Println("result:          MISMATCH")
		return 1
	}
	return 0
}

// emitJSON prints one campaign-result record on stdout.
func emitJSON(r campaign.Result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func buildChannel(key bitutil.Word128, platform, primitive string, mhz uint64, probeRound int, flush bool, lineWords int, noiseSeed uint64, tracer obs.Tracer, reg *metrics.Registry) (probe.Channel, error) {
	switch platform {
	case "oracle":
		o, err := oracle.New(key, oracle.Config{
			ProbeRound: probeRound,
			Flush:      flush,
			LineWords:  lineWords,
			Seed:       noiseSeed,
		})
		if err != nil {
			return nil, err
		}
		o.SetTracer(tracer)
		return o, nil
	case "soc":
		p := soc.DefaultParams(mhz)
		p.CacheLineBytes = lineWords
		switch primitive {
		case "flush-reload":
			p.Primitive = soc.PrimitiveFlushReload
		case "prime-probe":
			p.Primitive = soc.PrimitivePrimeProbe
		default:
			return nil, fmt.Errorf("unknown primitive %q (flush-reload, prime-probe)", primitive)
		}
		s := soc.NewSingleSoC(key, p)
		s.SetMetrics(reg)
		return &soc.PlatformChannel{P: s, LineBytes: lineWords, Tracer: tracer}, nil
	case "mpsoc":
		p := soc.DefaultParams(mhz)
		p.CacheLineBytes = lineWords
		m := soc.NewMPSoC(key, p)
		m.SetMetrics(reg)
		return &soc.PlatformChannel{P: m, LineBytes: lineWords, Tracer: tracer}, nil
	}
	return nil, fmt.Errorf("unknown platform %q (oracle, soc, mpsoc)", platform)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "grinch: "+format+"\n", args...)
	os.Exit(1)
}
