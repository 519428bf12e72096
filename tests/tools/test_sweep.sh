#!/bin/sh
# Design-space sweep contract, end to end through the real CLIs:
#
#   1. A 2x2 sweep runs every point, exits 0, and reports a Pareto
#      frontier plus a best point.
#   2. The results table is identical at any worker concurrency.
#   3. A sweep SIGKILLed mid-flight resumes from its ledger without
#      re-running finished points, and the final results table is
#      byte-identical to the uninterrupted run (the crash-recovery case
#      the ledger exists for).
#   4. `sstdse report` re-aggregates an existing directory; the
#      `sstsim --sweep` shorthand produces the same table as sstdse.
#   5. A bad spec exits 2; a sweep with permanently failing points
#      exits 6 and marks them failed in the table.
#
#   test_sweep.sh <sstdse> <sstsim> <models_dir>
set -u

SSTDSE="${1:?usage: test_sweep.sh <sstdse> <sstsim> <models_dir>}"
SSTSIM="${2:?missing sstsim path}"
MODELS="${3:?missing models dir}"
# Model paths get embedded in specs that resolve relative to the spec's
# own directory, so the models dir must be absolute.
MODELS="$(cd "$MODELS" && pwd)"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

check() {  # check <label> <command...>
  label="$1"; shift
  if ! "$@"; then
    echo "sweep: FAIL: $label" >&2
    fail=1
  fi
}

run() {  # run <label> <command...>  (must exit 0)
  label="$1"; shift
  if ! "$@" > "$WORK/$label.out" 2> "$WORK/$label.err"; then
    echo "sweep: $label: command failed:" >&2
    sed 's/^/  | /' "$WORK/$label.err" >&2
    fail=1
    return 1
  fi
}

# Heavy pingpong (~0.5s/point) so the SIGKILL below lands mid-flight.
sed 's/"iterations": 200/"iterations": 600000/' \
    "$MODELS/pingpong.json" > "$WORK/heavy.json"

cat > "$WORK/sweep.json" <<EOF
{
  "name": "smoke",
  "model": "heavy.json",
  "axes": [
    {"path": "/components/rank0/params/msg_bytes",
     "values": [1024, 4096]},
    {"path": "/network/link_latency", "values": ["20ns", "40ns"]}
  ],
  "objectives": [
    {"component": "rank0", "statistic": "message_latency_ps",
     "field": "mean", "goal": "min"},
    {"component": "rank0", "statistic": "bytes_sent", "goal": "max"}
  ],
  "run": {"concurrency": 2, "timeout_seconds": 120}
}
EOF

# --- 1: full run ------------------------------------------------------
run full "$SSTDSE" run "$WORK/sweep.json" --out "$WORK/full.sweep"
check "full run produced a results table" test -f "$WORK/full.sweep/results.csv"
check "full run reports a Pareto frontier" \
    grep -q "Pareto frontier" "$WORK/full.out"
check "full run reports a best point" \
    grep -q "best (weighted score)" "$WORK/full.out"
check "every point finished ok" \
    test "$(grep -c ',ok,' "$WORK/full.sweep/results.csv")" -eq 4

# --- 2: results table identical at any concurrency --------------------
run serial "$SSTDSE" run "$WORK/sweep.json" --out "$WORK/serial.sweep" \
    --jobs 1 -q
check "concurrency 1 table identical to concurrency 2" \
    cmp -s "$WORK/full.sweep/results.csv" "$WORK/serial.sweep/results.csv"

# --- 3: SIGKILL mid-flight, resume from the ledger --------------------
setsid "$SSTDSE" run "$WORK/sweep.json" --out "$WORK/kill.sweep" \
    --jobs 1 -q > /dev/null 2>&1 &
victim=$!
# Busy-wait until the ledger records at least one finished point, then
# SIGKILL the whole process group (driver AND its worker).
tries=0
while true; do
  n="$(grep -c '"status":"ok"' "$WORK/kill.sweep/ledger.jsonl" 2>/dev/null)" \
      || n=0
  if [ "$n" -ge 1 ]; then break; fi
  tries=$((tries + 1))
  if [ "$tries" -gt 20000 ]; then break; fi
  if ! kill -0 "$victim" 2>/dev/null; then break; fi
done
kill -9 -"$victim" 2>/dev/null
wait "$victim" 2>/dev/null
done_n="$(grep -c '"status":"ok"' "$WORK/kill.sweep/ledger.jsonl" \
    2>/dev/null)" || done_n=0
if [ "$done_n" -ge 4 ]; then
  echo "sweep: note: run finished before the kill landed;" \
       "resume degrades to the no-op path" >&2
fi
check "kill left a ledger with at least one finished point" \
    test "$done_n" -ge 1
run resume "$SSTDSE" resume "$WORK/kill.sweep"
check "resume skipped the already-finished points" \
    sh -c "test \"$done_n\" -ge 4 || grep -q 'resuming' '$WORK/resume.err'"
check "resumed table byte-identical to uninterrupted run" \
    cmp -s "$WORK/full.sweep/results.csv" "$WORK/kill.sweep/results.csv"

# --- 4: report subcommand + sstsim --sweep shorthand ------------------
run report "$SSTDSE" report "$WORK/full.sweep"
check "report prints the frontier without re-running" \
    grep -q "Pareto frontier" "$WORK/report.out"
run shorthand "$SSTSIM" --sweep "$WORK/sweep.json" \
    --sweep-out "$WORK/short.sweep" --jobs 2
check "sstsim --sweep table identical to sstdse" \
    cmp -s "$WORK/full.sweep/results.csv" "$WORK/short.sweep/results.csv"

# --- 5: error contracts -----------------------------------------------
cat > "$WORK/bad.json" <<EOF
{
  "model": "heavy.json",
  "axes": [{"path": "no-slash", "values": [1]}]
}
EOF
"$SSTDSE" run "$WORK/bad.json" --out "$WORK/bad.sweep" \
    > /dev/null 2> "$WORK/bad.err"
rc=$?
check "bad axis path exits 2" test "$rc" -eq 2
check "bad-spec diagnostic names the path rule" \
    grep -q "must start with '/'" "$WORK/bad.err"

# Overriding one endpoint's iteration count deadlocks its partner: a
# permanent per-point failure, so the sweep must finish with exit 6.
cat > "$WORK/failing.json" <<EOF
{
  "name": "failing",
  "model": "$MODELS/pingpong.json",
  "axes": [
    {"path": "/components/rank0/params/iterations", "values": [100]}
  ],
  "run": {"concurrency": 1, "timeout_seconds": 60, "retries": 0}
}
EOF
"$SSTDSE" run "$WORK/failing.json" --out "$WORK/failing.sweep" \
    -q > /dev/null 2>&1
rc=$?
check "permanently failing point exits 6" test "$rc" -eq 6
check "failed point marked in the table" \
    grep -q ',failed,' "$WORK/failing.sweep/results.csv"

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "sweep: all design-space sweep contracts hold"
