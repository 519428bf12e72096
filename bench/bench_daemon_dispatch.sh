#!/bin/sh
# E18: per-point dispatch overhead of a sweep, three ways.
#
#   bench/bench_daemon_dispatch.sh [build_dir]
#
# Runs the same >=100 points of a near-zero-work model three ways, so
# wall time is dominated by per-point dispatch overhead:
#
#   cold loop    one `sstsim` process per point with the point's
#                overrides (process start + SDL parse every time);
#   in-process   `sstdse run --jobs 1`: the points run on one worker
#                process the sweep forks (model parsed once);
#   daemon       `sstdse run --daemon` against a 1-worker sstsimd (model
#                parsed once, points submitted over its socket).
#
# The in-process and daemon sweeps must produce byte-identical
# results.csv, or the script fails.  Records ms per point for each arm
# under the "daemon_dispatch" key of BENCH_pdes.json (the baseline /
# current / speedup sections are owned by run_benchmarks.sh and left
# untouched).
#
# Environment:
#   SST_BENCH_DISPATCH_POINTS   points per arm (default 100, min 100)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-bench}"
OUT="$ROOT/BENCH_pdes.json"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" --target sstsim sstsimd sstdse \
    -j"$(getconf _NPROCESSORS_ONLN)"

python3 - "$ROOT" "$BUILD" "$OUT" <<'EOF'
import json, os, subprocess, sys, tempfile, time

root, build, out_path = sys.argv[1], sys.argv[2], sys.argv[3]
sstsim = os.path.join(build, "src/tools/sstsim")
sstsimd = os.path.join(build, "src/tools/sstsimd")
sstdse = os.path.join(build, "src/tools/sstdse")
points = max(100, int(os.environ.get("SST_BENCH_DISPATCH_POINTS", "100")))

work = tempfile.mkdtemp(prefix="sst_dispatch_bench_")

# Near-zero simulated work: one ping per endpoint pair, so per-point
# wall time is almost entirely dispatch overhead.
with open(os.path.join(root, "tests/tools/models/pingpong.json")) as f:
    model = f.read().replace('"iterations": 200', '"iterations": 1')
model_path = os.path.join(work, "light.json")
with open(model_path, "w") as f:
    f.write(model)

axis = "/components/rank0/params/msg_bytes"
values = list(range(64, 64 + points))
spec = {
    "name": "dispatch_overhead",
    "model": model_path,
    "axes": [{"path": axis, "values": values}],
    "run": {"concurrency": 1, "timeout_seconds": 60, "retries": 0},
}
spec_path = os.path.join(work, "spec.json")
with open(spec_path, "w") as f:
    json.dump(spec, f)

def report(label, dt):
    print(f"  {label}: {points} points in {dt:.2f}s "
          f"({1000 * dt / points:.2f} ms/point)")
    return dt

def cold_loop():
    t0 = time.monotonic()
    for v in values:
        d = os.path.join(work, "cold", str(v))
        os.makedirs(d)
        subprocess.run([sstsim, model_path, "--override", f"{axis}={v}",
                        "--stats", "stats.json", "--stats-format", "json"],
                       cwd=d, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    return report("cold loop", time.monotonic() - t0)

def run_sweep(label, out_dir, extra):
    t0 = time.monotonic()
    subprocess.run([sstdse, "run", spec_path, "--out", out_dir, "-q"] + extra,
                   check=True)
    return report(label, time.monotonic() - t0)

print(f"dispatch bench: {points} points, cold loop vs in-process vs daemon")
cold_s = cold_loop()
inproc_s = run_sweep("in-process", os.path.join(work, "sw_inprocess"),
                     ["--jobs", "1"])

sock = os.path.join(work, "d.sock")
daemon = subprocess.Popen([sstsimd, "--socket", sock, "--workers", "1"],
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
try:
    for _ in range(100):
        if subprocess.run([sstsimd, "--socket", sock, "--status"],
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            break
        time.sleep(0.1)
    else:
        sys.exit("dispatch bench: daemon never came up")
    daemon_s = run_sweep("daemon", os.path.join(work, "sw_daemon"),
                         ["--daemon", sock])
finally:
    subprocess.run([sstsimd, "--socket", sock, "--drain"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    daemon.wait(timeout=30)

# Same sweep, same answers: overhead must be the only difference.
with open(os.path.join(work, "sw_inprocess/results.csv"), "rb") as f:
    inproc_csv = f.read()
with open(os.path.join(work, "sw_daemon/results.csv"), "rb") as f:
    daemon_csv = f.read()
if inproc_csv != daemon_csv:
    sys.exit("dispatch bench: daemon sweep results differ from the "
             "in-process sweep")

record = {
    "points": points,
    "cold_loop_ms_per_point": round(1000 * cold_s / points, 3),
    "inprocess_ms_per_point": round(1000 * inproc_s / points, 3),
    "daemon_ms_per_point": round(1000 * daemon_s / points, 3),
}
try:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
except Exception:
    rev = "unknown"
record["git_rev"] = rev
record["nproc"] = os.cpu_count()

try:
    with open(out_path) as f:
        doc = json.load(f)
except (OSError, ValueError):
    doc = {}
doc["daemon_dispatch"] = record
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} (daemon_dispatch)")
EOF
