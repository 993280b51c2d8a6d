// Command perfbench is the repository's end-to-end benchmark. It runs
// one of the paper's workloads (table1, fleet, ciphers, table2) for a
// fixed wall time through the public APIs of internal/experiments,
// campaign, campaignd, core, oracle, gift and soc, checks every output
// against a reference, and prints its metrics by name with their units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run wraps the calls into each layer and reports the
// per-layer metrics plus a reconciliation of layer self time against
// workers × wall. BENCHMARK.json at the repository root lists both sets.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
//
// A failed output check prints the result with "correct": false and
// exits 1; bad flags or a broken environment exit 2 without a result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"encryptions_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
	{"encryptions_per_job", "1"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload does not exercise reads 0 (see README.md).
var perLayer = []metricSpec{
	{"gift.batch64_ns_per_block", "ns"},
	{"gift.scalar_ns_per_block", "ns"},
	{"oracle.prime_ns_per_block", "ns"},
	{"oracle.prime_useful_frac", "1"},
	{"oracle.scalar_collects_per_job", "count"},
	{"experiments.job_ms_p50", "ms"},
	{"experiments.job_ms_p99", "ms"},
	{"experiments.job_samples", "count"},
	{"experiments.build_us_per_job", "us"},
	{"core.self_ms_per_job", "ms"},
	{"core.observations_per_job", "count"},
	{"core.gift64_ms_per_key", "ms"},
	{"core.gift128_ms_per_key", "ms"},
	{"core.present80_ms_per_key", "ms"},
	{"campaign.pool_busy_frac", "1"},
	{"campaign.tail_ms", "ms"},
	{"campaign.sink_us_per_result", "us"},
	{"campaign.journal_us_per_record", "us"},
	{"campaignd.lease_us_p50", "us"},
	{"campaignd.report_us_p50", "us"},
	{"campaignd.report_us_p99", "us"},
	{"campaignd.complete_us_p99", "us"},
	{"campaignd.requests_per_job", "count"},
	{"campaignd.bytes_per_job", "B"},
	{"campaignd.shed_total", "count"},
	{"campaignd.retries_total", "count"},
	{"worker.report_rtt_us_p50", "us"},
	{"worker.report_rtt_us_p99", "us"},
	{"worker.flush_block_frac", "1"},
	{"worker.shard_gap_ms", "ms"},
	{"soc.single_ms_per_race", "ms"},
	{"soc.mpsoc_ms_per_race", "ms"},
	{"soc.cpu_frac", "1"},
	{"runtime.alloc_kb_per_job", "KB"},
	{"runtime.gc_cpu_frac", "1"},
	{"trace.overhead_frac", "1"},
	{"trace.unattributed_frac", "1"},
}

// sizes fix how much work one repetition of each workload does. A run
// repeats the workload until --seconds have passed and reports medians
// over the repetitions.
type sizes struct {
	table1Trials int           // trials per Table I cell (6 cells)
	fleetJobs    int           // probe-round-1, 1-word first-round jobs
	cipherTrials int           // key recoveries per cipher
	table2Trials int           // races per Table II cell (6 cells)
	replay       time.Duration // how long each GIFT kernel replay runs at least
}

var defaultSizes = sizes{table1Trials: 200, fleetJobs: 20000, cipherTrials: 60, table2Trials: 20, replay: 300 * time.Millisecond}

type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int    // pool size: nproc
	minReps int    // repetitions made even past --seconds
	workDir string // scratch files (journals, sinks, shard data)
	size    sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1, fleet, ciphers or table2")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 15, "wall seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		minReps: 3,
		workDir: work,
		size:    defaultSizes,
	}
	fmt.Fprintln(stdout, hostLine())
	res, err := execute(*name, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles its result, printing the
// metrics table (and, when traced, the reconciliation) on the way.
func execute(name string, cfg config, out io.Writer) (result, error) {
	w := workloads[name]
	b := &bench{cfg: cfg, layer: map[string]float64{}}
	specs, mode, vals := endToEnd, "end to end", b.layer
	if cfg.trace {
		specs, mode = perLayer, "traced"
		if err := w.trace(b); err != nil {
			return result{}, err
		}
		b.printLedger(out, name)
	} else {
		if err := w.run(b); err != nil {
			return result{}, err
		}
		vals = b.endToEnd()
	}
	res := result{Metrics: map[string]metric{}}
	var rates, stolen, cpus []string
	for _, r := range b.reps {
		rates = append(rates, fmt.Sprintf("%.0f", float64(r.jobs)/r.wall.Seconds()))
		stolen = append(stolen, fmt.Sprintf("%.1f", 100*r.stolen))
		cpus = append(cpus, fmt.Sprintf("%.4g", float64(r.cpu)/float64(time.Millisecond)/float64(r.jobs)))
	}
	fmt.Fprintf(out, "per repetition, jobs per wall second: %s\n", strings.Join(rates, " "))
	fmt.Fprintf(out, "per repetition, %% of busy CPU time stolen: %s\n", strings.Join(stolen, " "))
	fmt.Fprintf(out, "per repetition, cpu ms per job: %s\n", strings.Join(cpus, " "))
	fmt.Fprintf(out, "%s (%s, seed %d, %d reps):\n", name, mode, cfg.seed, len(b.reps))
	for _, s := range specs {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail(0, "metric %s is not finite", s.name)
			v = 0
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", s.name, v, s.unit)
	}
	if b.attempted > 0 {
		fmt.Fprintf(out, "  %-34s %14.6g 1\n", "failed_frac", float64(b.failed)/float64(b.attempted))
	}
	for _, p := range b.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = len(b.problems) == 0 && b.attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	return res, nil
}

// rep is one timed repetition of a workload.
type rep struct {
	setup  time.Duration // set-up up to the first dispatched job
	wall   time.Duration // the timed grid
	cpu    time.Duration // process user+sys CPU over the timed grid
	stolen float64       // share of the machine's busy CPU time the hypervisor stole over the grid
	jobs   int
	encs   uint64 // victim encryptions the repetition's jobs consumed
}

// runSeconds is the grid's wall time less the share the hypervisor
// stole. On a shared virtual machine that share swung between 1% and
// 32% from minute to minute and moved wall rates with it; without
// steal it is the wall time.
func (r rep) runSeconds() float64 { return r.wall.Seconds() * (1 - r.stolen) }

func (r rep) jobsPerSec() float64 { return float64(r.jobs) / r.runSeconds() }

// bench accumulates one run: repetitions, job accounting, failed
// checks, per-layer values and the traced run's time ledger.
type bench struct {
	cfg       config
	reps      []rep
	attempted int
	failed    int
	problems  []string
	layer     map[string]float64
	ledger    ledger
}

// fail records a failed output check that invalidates jobs results.
func (b *bench) fail(jobs int, format string, args ...any) {
	b.failed += jobs
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// same checks got against want byte for byte.
func (b *bench) same(what string, want, got []byte, jobs int) {
	if string(want) != string(got) {
		b.fail(jobs, "%s: %d bytes differ from the %d-byte reference", what, len(got), len(want))
	}
}

// repeat runs one until the measuring time has passed (and at least
// minReps times), keeping every repetition.
func (b *bench) repeat(one func() (rep, error)) error {
	end := time.Now().Add(b.cfg.seconds)
	for len(b.reps) < b.cfg.minReps || time.Now().Before(end) {
		r, err := one()
		if err != nil {
			return err
		}
		b.reps = append(b.reps, r)
	}
	return nil
}

// endToEnd reduces the repetitions to the end-to-end metrics: medians
// of the per-repetition rates, so one slow repetition cannot move them.
func (b *bench) endToEnd() map[string]float64 {
	var setup, jps, eps, cpu []float64
	for _, r := range b.reps {
		setup = append(setup, r.setup.Seconds())
		jps = append(jps, r.jobsPerSec())
		eps = append(eps, float64(r.encs)/r.runSeconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Millisecond)/float64(r.jobs))
	}
	first := b.reps[0]
	for _, r := range b.reps[1:] {
		if r.encs != first.encs || r.jobs != first.jobs {
			b.fail(r.jobs, "encryption count drifted between repetitions: %d/%d jobs vs %d/%d", r.encs, r.jobs, first.encs, first.jobs)
		}
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"jobs_per_s":          median(jps),
		"encryptions_per_s":   median(eps),
		"cpu_ms_per_job":      median(cpu),
		"peak_rss_mb":         peakRSSMB(),
		"encryptions_per_job": float64(first.encs) / float64(first.jobs),
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// usage is the process's CPU time and the machine's busy and stolen
// CPU ticks at one instant.
type usage struct {
	cpu         time.Duration
	busy, steal uint64
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.busy, u.steal = machineTicks()
	return u
}

// since returns the process CPU time spent since u and the share of
// the machine's busy CPU time the hypervisor stole meanwhile.
func (u usage) since() (cpu time.Duration, stolen float64) {
	now := readUsage()
	busy, steal := now.busy-u.busy, now.steal-u.steal
	if busy+steal > 0 {
		stolen = float64(steal) / float64(busy+steal)
	}
	return now.cpu - u.cpu, stolen
}

// machineTicks reads the busy (user, nice, system, irq, softirq) and
// stolen CPU ticks from /proc/stat; zeros where it does not exist.
func machineTicks() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// peakRSSMB is this process's peak resident set in MB. VmHWM belongs to
// the process image, so the shell that exec'd the benchmark is not in it.
func peakRSSMB() float64 {
	if kb, ok := procStatusKB("VmHWM"); ok {
		return float64(kb) * 1024 / 1e6
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func procStatusKB(field string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != field {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		return n, err == nil
	}
	return 0, false
}

// hostLine records what the numbers were measured on.
func hostLine() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
