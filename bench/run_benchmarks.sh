#!/bin/sh
# PDES performance trajectory runner.
#
#   bench/run_benchmarks.sh [build_dir]
#
# Configures and builds a Release build (reusing build_dir if given,
# default <repo>/build-bench), runs the PHOLD scaling benchmark, and
# (re)writes BENCH_pdes.json at the repo root:
#
#   {"baseline": {...},   # first recorded measurement, kept forever
#    "current":  {...},   # this run
#    "speedup":  {...}}   # current/baseline events/sec, serial and 4-rank,
#                         # plus rebalanced-vs-static hotspot at 4/8 ranks
#
# The baseline section is preserved across reruns so every PR has a
# before/after record; delete BENCH_pdes.json to re-seed it.
#
# Environment:
#   SST_BENCH_END_US   simulated microseconds per configuration
#                      (default 2000; CI smoke uses 200)
#   SST_BENCH_REPEAT   repeats per configuration, fastest kept (default 3)
#   SST_BENCH_MIN_REBALANCE_SPEEDUP
#                      when set (e.g. "1.25"), fail unless rebalanced
#                      events/sec on the 8-rank moving-hotspot scenario is
#                      at least this multiple of the static min-cut run
#                      (the CI rebalance job gate)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-bench}"
END_US="${SST_BENCH_END_US:-2000}"
REPEAT="${SST_BENCH_REPEAT:-3}"
OUT="$ROOT/BENCH_pdes.json"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" --target bench_pdes_scaling -j"$(getconf _NPROCESSORS_ONLN)"

CURRENT="$BUILD/bench_pdes_current.json"
"$BUILD/bench/bench_pdes_scaling" --end-us "$END_US" --repeat "$REPEAT" \
    --json "$CURRENT"

python3 - "$OUT" "$CURRENT" "$ROOT" <<'EOF'
import json, subprocess, sys

out_path, current_path, root = sys.argv[1], sys.argv[2], sys.argv[3]
with open(current_path) as f:
    current = json.load(f)
try:
    # -C pins the lookup to the benchmarked checkout: the script may be
    # invoked from any working directory (build trees, CI runners), and a
    # bare rev-parse would stamp whatever repo that directory happens to
    # be in.
    rev = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
except Exception:
    rev = "unknown"
current["git_rev"] = rev

try:
    with open(out_path) as f:
        doc = json.load(f)
    baseline = doc.get("baseline", current)
except (OSError, ValueError):
    doc = {}
    baseline = current

def eps(doc, ranks, part="mincut", scenario="phold", rebalance=False):
    for run in doc.get("runs", []):
        # Rows predating the scenario/rebalance columns are static-partition
        # PHOLD runs; rows of the removed adaptive/lax sync modes (older
        # baselines) are skipped.
        if (run["ranks"] == ranks and run["partitioner"] == part
                and run.get("sync_mode", "conservative") == "conservative"
                and run.get("scenario", "phold") == scenario
                and run.get("rebalance", False) == rebalance):
            return run["events_per_sec"]
    return None

speedup = {}
for label, ranks in (("serial", 1), ("ranks4", 4)):
    base, cur = eps(baseline, ranks), eps(current, ranks)
    if base and cur:
        speedup[label] = round(cur / base, 3)

# Rebalanced-vs-static min-cut on the moving-hotspot scenario, within
# this run (the E19 headline).
for ranks in (4, 8):
    stat = eps(current, ranks, scenario="hotspot")
    rebal = eps(current, ranks, scenario="hotspot", rebalance=True)
    if stat and rebal:
        speedup[f"rebalance{ranks}_vs_static{ranks}"] = round(rebal / stat, 3)

# Update in place so sections owned by other benches (e.g. the
# daemon_dispatch record from bench_daemon_dispatch.sh) survive reruns.
doc.update({"baseline": baseline, "current": current, "speedup": speedup})
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
print(f"  baseline rev {baseline.get('git_rev', '?')}, "
      f"current rev {rev}, speedup {speedup}")

import os
gate = os.environ.get("SST_BENCH_MIN_REBALANCE_SPEEDUP")
if gate:
    got = speedup.get("rebalance8_vs_static8")
    if got is None:
        sys.exit("rebalance gate: no 8-rank hotspot rows in this run")
    if got < float(gate):
        sys.exit(f"rebalance gate: 8-rank rebalance speedup {got} "
                 f"< required {gate}")
    print(f"  rebalance gate passed: {got} >= {gate}")
EOF
