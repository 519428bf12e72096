#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from source and runs workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --record

The first form runs one workload; the last line of its standard output is
the JSON result.  --all runs every workload and prints one table of the
end-to-end metrics (or, with --trace 1, the per-layer metrics) by name
with units.  --record re-records perfbench/digests.json, the reference
event counts and statistics digests every run is checked against.

perfbench is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; scratch files go to .bench_work.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["phold_r2", "hotspot_r2", "node_vm", "sweep_tlb"]
DIGESTS = os.path.join(HERE, "digests.json")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds perfbench; returns the build dir."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(build_dir)  # configured for another source tree
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir


def git_rev(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def perfbench_cmd(root, build_dir, work):
    return [os.path.join(build_dir, "perfbench"),
            "--work", os.path.join(root, ".bench_work", work),
            "--sstsim", os.path.join(build_dir, "sst", "src", "tools",
                                     "sstsim")]


def run_perfbench(cmd, capture=False):
    """Runs perfbench in its own process group, so a timeout also stops
    the sweep's sstsim children.  Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(cmd, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    return proc.returncode, out


def run_workload(root, build_dir, workload, seed, seconds, trace,
                 capture=False):
    return run_perfbench(perfbench_cmd(root, build_dir, workload) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--digests", DIGESTS, "--git-rev", git_rev(root)], capture)


def run_all(root, build_dir, args):
    """Every workload once; one table of metrics by name with units."""
    rows = []
    status = 0
    for w in WORKLOADS:
        code, out = run_workload(root, build_dir, w, args.seed, args.seconds,
                                 args.trace, capture=True)
        sys.stderr.write(out or "")
        lines = (out or "").strip().splitlines()
        if code != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((w, "failed_frac",
                     result["failed"] / result["attempted"], "ratio"))
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
    for w, name, value, unit in rows:
        print(f"{w:<11} {name:<28} {value:>16.6g} {unit}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.record):
        ap.error("one of --workload, --all or --record is required")

    root = os.getcwd()
    try:
        build_dir = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.record:
        return subprocess.run(perfbench_cmd(root, build_dir, "record") +
                              ["--record", DIGESTS]).returncode
    if args.all:
        return run_all(root, build_dir, args)
    return run_workload(root, build_dir, args.workload, args.seed,
                        args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
