#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same code agree?

Run from the root of a checkout:

  python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--out f]

For every workload it makes two interleaved sets of --runs runs through
perfbench/run.py: set A with seeds 0..runs-1, set B with seeds
runs..2*runs-1, alternating which set goes first.  For each end-to-end
metric it prints both sets' medians and quartiles, the spread
(q3 - q1) / median of each set, and the drift of B's median against A's
in the metric's worse direction, all against the metric's bound from
BENCHMARK.json.  A spread below a third of the bound is steady; the
benchmark contract requires every spread except setup_s, and every drift,
to stay within the bound.  Exits 1 when one does not.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="also write the raw values as JSON here")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = i if s == "A" else args.runs + i
                sets[s].append(one_run(w, seed, args.seconds))
                print(f"{w} set {s} seed {seed}: {sets[s][-1]}",
                      file=sys.stderr, flush=True)
        raw[w] = sets
        print(f"\n{w} ({args.runs} runs per set, {args.seconds} s each)")
        print(f"  {'metric':<14} {'set':<3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6} {'drift':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            meds = {}
            for s in ("A", "B"):
                med, q1, q3 = summary([r[name] for r in sets[s]])
                spread = (q3 - q1) / med
                meds[s] = med
                flag = "steady" if spread < bound / 3 else (
                    "ok" if spread <= bound else "NOISY")
                if spread > bound and name != "setup_s":
                    ok = False
                drift = ""
                if s == "B":
                    d = sign * (meds["B"] - meds["A"]) / meds["A"]
                    drift = f"{d:+.2%}"
                    if d > bound:
                        ok = False
                        drift += " WORSE"
                print(f"  {name:<14} {s:<3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.2%} {bound:>6.0%} {drift:>8}"
                      f"  {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
