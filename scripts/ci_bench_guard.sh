#!/usr/bin/env bash
# Perf-regression guard: re-run the committed benchmark set on the
# current tree (`make bench-json` into a scratch file) and compare each
# benchmark's ns/op against BENCH_baseline.json. Any benchmark more
# than BENCH_TOLERANCE_PCT percent slower than its baseline fails the
# build; a benchmark that disappeared from the set fails too (regenerate
# the baseline with `make bench-json` and review the diff).
#
# The committed baseline records the reference machine's numbers, so
# the default 25% tolerance is only meaningful on comparable hardware.
# Hosted CI runners differ in absolute speed — there the workflow runs
# this guard with a wide tolerance, which still catches order-of-
# magnitude regressions like the batched attack path silently falling
# back to the scalar pipeline (~10x on BenchmarkTable1Campaign).
#
# The measurement is the per-benchmark MINIMUM over BENCH_GUARD_REPS
# runs (default 3): the minimum is the run least disturbed by scheduler
# noise, so the guard compares best-case to best-case instead of
# failing whenever a background spike lands inside one rep. Benchmarks
# whose baseline is under 1 ms/op run only a handful of iterations at
# the pinned -benchtime and are bimodal under scheduler noise, so they
# get a 100% floor instead of the strict tolerance. Multi-worker
# variants (workers=2 and up) get the same floor: they measure
# contention on shared cores, so background load inflates them
# superlinearly. The regressions this guard exists to catch (the
# batched attack pipeline silently degrading to the scalar path) live
# in the millisecond-scale serial campaign benchmarks — workers=1 is
# the canonical gate and stays under the strict tolerance.
#
# Usage: scripts/ci_bench_guard.sh [baseline.json]
#   BENCH_TOLERANCE_PCT  allowed slowdown in percent (default 25)
#   BENCH_GUARD_REPS     measurement repetitions, min taken (default 3)
#
# If the comparison fails, up to two extra reps are measured and the
# minimum re-taken before the verdict: a background load spike spanning
# the first reps clears, while a real regression fails every retry.
#
# Every other baseline metric except B/op and allocs/op is a work
# counter (encryptions/op, earliest_round, series, ...): deterministic,
# so each rep must reproduce it exactly, on any host. A counter that
# moved fails at once, with no retry; a deliberate change needs a
# regenerated baseline and a note in CHANGES.md.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE="${1:-BENCH_baseline.json}"
TOL="${BENCH_TOLERANCE_PCT:-25}"
REPS="${BENCH_GUARD_REPS:-3}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if [ ! -f "$BASELINE" ]; then
  echo "ci_bench_guard: baseline $BASELINE not found (run 'make bench-json' and commit it)" >&2
  exit 1
fi

echo "== running benchmark set ($REPS reps, tolerance ${TOL}%)"
for rep in $(seq 1 "$REPS"); do
  make -s bench-json BENCH_OUT="$WORK/current.$rep.json" >/dev/null
done

compare() {
python3 - "$BASELINE" "$TOL" "$WORK"/current.*.json <<'PY'
import json, re, sys

base_path, tol, cur_paths = sys.argv[1], float(sys.argv[2]), sys.argv[3:]

TIMED = {"ns/op", "B/op", "allocs/op"}

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {(b.get("pkg", ""), b["name"]): b.get("metrics", {}) for b in doc["benchmarks"]}

def label_of(key):
    pkg, name = key
    return f"{pkg}:{name}" if pkg else name

base_all = load(base_path)
runs = [load(path) for path in cur_paths]

# Work counters first: exact equality in every rep.
counter_failures = []
for key in sorted(base_all):
    for metric, want in sorted(base_all[key].items()):
        if metric in TIMED:
            continue
        for run in runs:
            if key not in run:
                continue  # reported as MISSING below
            got = run[key].get(metric)
            if got != want:
                counter_failures.append(f"{label_of(key)}: {metric} {want} -> {got}")
                break

base = {k: m["ns/op"] for k, m in base_all.items() if "ns/op" in m}
cur = {}
for run in runs:
    for key, m in run.items():
        if "ns/op" in m:
            cur[key] = min(m["ns/op"], cur.get(key, m["ns/op"]))
failures = []

print(f"{'benchmark':56s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
for key in sorted(base):
    name, label = key[1], label_of(key)
    if key not in cur:
        failures.append(f"{label}: present in baseline but not produced by the current run")
        print(f"{label:56s} {base[key]:12.0f} {'MISSING':>12s}")
        continue
    # Sub-ms benchmarks run too few iterations to average scheduler
    # modes, and multi-worker variants contend with background load;
    # hold both to a 100% floor rather than the strict gate.
    noisy = base[key] < 1e6 or re.search(r"workers=(?!1$)\d+$", name)
    eff = max(tol, 100.0) if noisy else tol
    ratio = cur[key] / base[key]
    flag = ""
    if ratio > 1 + eff / 100:
        failures.append(f"{label}: {base[key]:.0f} -> {cur[key]:.0f} ns/op "
                        f"({(ratio - 1) * 100:+.1f}%, tolerance {eff:.0f}%)")
        flag = "  << REGRESSION"
    print(f"{label:56s} {base[key]:12.0f} {cur[key]:12.0f} {ratio:6.2f}x{flag}")

for key in sorted(set(cur) - set(base)):
    label = label_of(key)
    print(f"{label:56s} {'(new)':>12s} {cur[key]:12.0f}   not in baseline — "
          f"regenerate with 'make bench-json'")

if counter_failures:
    print("\nci_bench_guard: work counters differ from the baseline:", file=sys.stderr)
    for f in counter_failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(2)
if failures:
    print("\nci_bench_guard: performance regressions beyond tolerance:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("\nci_bench_guard: all benchmarks within tolerance, all work counters exact")
PY
}

rc=0
compare || rc=$?
for retry in 1 2; do
  # 0 passed; 2 is a work-counter mismatch, which no rerun can clear.
  [ "$rc" -ne 1 ] && break
  echo "== retry $retry: measuring one more rep in case a load spike spanned the earlier ones"
  make -s bench-json BENCH_OUT="$WORK/current.retry$retry.json" >/dev/null
  rc=0
  compare || rc=$?
done
exit "$rc"
