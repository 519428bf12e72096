#!/bin/sh
# sstsimd hardened-lifecycle contract, end to end through the real CLIs:
#
#   1. A model submitted through the daemon produces stats.json
#      byte-identical to a direct `sstsim --stats-format json` run, also
#      with --override entries and setting flags, which the request
#      carries as overrides; `--watchdog 0` spools no deadline.
#   2. Resubmitting a finished request id replays the recorded result
#      from the ledger instead of re-running it.
#   3. A request whose worker dies by SIGSEGV is diagnosed (exit 1,
#      signal recorded) while a concurrent healthy request completes —
#      crash isolation — and the worker pool respawns.
#   4. Requests beyond the admission queue bound are shed with an
#      explicit overload rejection, in bounded time.
#   5. A daemon SIGKILLed with accepted-but-unfinished requests
#      restarts, recovers them from its ledger, and completes every one
#      exactly once (one final record per id, stats present).
#   6. A 2x2 sweep dispatched through the daemon produces a results
#      table byte-identical to the in-process sweep, and every point
#      directory holds model.json, stats.json and a run.log with
#      sstsim's "done:" line.
#   7. `--drain` finishes accepted work and stops the daemon; the
#      socket is released.
#   8. A request line with a field of the wrong type ({"op": 5}) gets an
#      error reply, and the daemon goes on answering `status`.
#   9. A model the daemon refuses at admission (an undeclared param) is
#      exit 2 naming the param, as a direct run is: the refusal's done
#      line reports 0 attempts and the client reads it.
#
#   test_daemon.sh <sstsimd> <sstsim> <sstdse> <models_dir>
set -u

SSTSIMD="${1:?usage: test_daemon.sh <sstsimd> <sstsim> <sstdse> <models_dir>}"
SSTSIM="${2:?missing sstsim path}"
SSTDSE="${3:?missing sstdse path}"
MODELS="${4:?missing models dir}"

# The harness cds into per-case work dirs, so every argument must be
# usable from anywhere.
abspath() { case "$1" in /*) printf '%s' "$1" ;; *) printf '%s/%s' "$(pwd)" "$1" ;; esac; }
SSTSIMD="$(abspath "$SSTSIMD")"
SSTSIM="$(abspath "$SSTSIM")"
SSTDSE="$(abspath "$SSTDSE")"
MODELS="$(cd "$MODELS" && pwd)"

WORK="$(mktemp -d)"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  # Workers of a hard-killed daemon are orphaned; reap by state dir.
  rm -rf "$WORK"
}
trap cleanup EXIT

fail=0

check() {  # check <label> <command...>
  label="$1"; shift
  if ! "$@"; then
    echo "daemon: FAIL: $label" >&2
    fail=1
  fi
}

run() {  # run <label> <command...>  (must exit 0)
  label="$1"; shift
  if ! "$@" > "$WORK/$label.out" 2> "$WORK/$label.err"; then
    echo "daemon: $label: command failed:" >&2
    sed 's/^/  | /' "$WORK/$label.err" >&2
    fail=1
    return 1
  fi
}

start_daemon() {  # start_daemon <socket> [extra options...]
  sock="$1"; shift
  "$SSTSIMD" --socket "$sock" "$@" > "$WORK/daemon.log" 2>&1 &
  DPID=$!
  # Wait for the socket to accept connections.
  i=0
  while [ "$i" -lt 100 ]; do
    if "$SSTSIMD" --socket "$sock" --status >/dev/null 2>&1; then return 0; fi
    i=$((i + 1))
    sleep 0.1
  done
  echo "daemon: never came up on $sock" >&2
  sed 's/^/  | /' "$WORK/daemon.log" >&2
  fail=1
  return 1
}

stop_daemon() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null
  wait "$DPID" 2>/dev/null
  DPID=""
}

status_field() {  # status_field <socket> <key>  (numeric fields only)
  "$SSTSIMD" --socket "$1" --status |
    sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" | head -1
}

SOCK="$WORK/d.sock"

# ---- 1: warm-dispatch run is byte-identical to a direct run ----------
start_daemon "$SOCK" --workers 2
mkdir -p "$WORK/direct"
( cd "$WORK/direct" &&
  "$SSTSIM" "$MODELS/pingpong.json" --stats stats.json \
      --stats-format json ) > /dev/null 2>&1 ||
  { echo "daemon: direct baseline run failed" >&2; fail=1; }
run "via-daemon" "$SSTSIM" "$MODELS/pingpong.json" --daemon "$SOCK" \
    --daemon-out "$WORK/via" --daemon-id req1
check "daemon stats byte-identical to direct run" \
  cmp -s "$WORK/direct/stats.json" "$WORK/via/stats.json"
check "request spooled crash-consistently" test -f "$WORK/via/request.json"

# --override entries and setting flags reach the worker: the request
# carries them, its stats and trace equal the direct run's with the same
# ones, and it writes the snapshots they ask for.
OVERRIDES="--override /config/seed=5 --override /components/rank0/params/msg_bytes=64KiB --end 5us --trace t.json --checkpoint-period 1us"
mkdir -p "$WORK/direct_ov"
# shellcheck disable=SC2086
( cd "$WORK/direct_ov" &&
  "$SSTSIM" "$MODELS/pingpong.json" $OVERRIDES --stats stats.json \
      --stats-format json ) > /dev/null 2>&1 ||
  { echo "daemon: direct run with overrides failed" >&2; fail=1; }
# shellcheck disable=SC2086
run "via-daemon-ov" "$SSTSIM" "$MODELS/pingpong.json" $OVERRIDES \
    --daemon "$SOCK" --daemon-out "$WORK/via_ov"
check "daemon stats with overrides byte-identical to direct run" \
  cmp -s "$WORK/direct_ov/stats.json" "$WORK/via_ov/stats.json"
check "the overrides changed the run" \
  test "$(cksum < "$WORK/direct/stats.json")" != \
       "$(cksum < "$WORK/via_ov/stats.json")"
check "request carries the overrides" \
  grep -q '"/components/rank0/params/msg_bytes":"64KiB"' \
      "$WORK/via_ov/request.json"
check "daemon trace with overrides byte-identical to direct run" \
  cmp -s "$WORK/direct_ov/t.json" "$WORK/via_ov/t.json"
check "daemon run wrote its snapshots" \
  test -f "$WORK/via_ov/ckpt/$(ls "$WORK/direct_ov/ckpt" | tail -1)"

# A watchdog turned off on the command line is no deadline either: the
# request carries timeout 0 and the user's 0, not the default 300 s.
for wd in "--watchdog 0" "--override /config/watchdog_seconds=0"; do
  # shellcheck disable=SC2086
  run "via-daemon-wd0" "$SSTSIM" "$MODELS/pingpong.json" $wd \
      --daemon "$SOCK" --daemon-out "$WORK/via_wd0"
  check "$wd: request has no deadline" \
    grep -q '"timeout":0,' "$WORK/via_wd0/request.json"
  check "$wd: request keeps the watchdog off" \
    grep -q '"/config/watchdog_seconds":"0"' "$WORK/via_wd0/request.json"
  rm -rf "$WORK/via_wd0"
done

# ---- 9: a refused model is a config error, not a daemon error -------
sed 's/"msg_bytes": 4096/"msg_bytes": 4096, "msg_bytez": 1/' \
    "$MODELS/pingpong.json" > "$WORK/bad_param.json"
"$SSTSIM" "$WORK/bad_param.json" --daemon "$SOCK" \
    --daemon-out "$WORK/bad_param" > /dev/null 2> "$WORK/bad_param.err"
code=$?
check "refused model exits 2 (got $code)" [ "$code" -eq 2 ]
check "refusal names the unknown param" \
  grep -q "unknown param 'msg_bytez'" "$WORK/bad_param.err"

# ---- 8: a mistyped field fails the request, not the daemon -----------
reply="$(python3 - "$SOCK" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"op": 5}\n')
print(s.makefile().readline().strip())
PY
)"
case "$reply" in
  *'"type":"error"'*) ;;
  *) echo "daemon: FAIL: mistyped op got no error reply ($reply)" >&2
     fail=1 ;;
esac
workers="$(status_field "$SOCK" workers)"
check "daemon answers status after a mistyped op (workers=$workers)" \
  [ "${workers:-0}" -eq 2 ]

# ---- 2: finished ids replay from the ledger --------------------------
run "replay" "$SSTSIM" "$MODELS/pingpong.json" --daemon "$SOCK" \
    --daemon-out "$WORK/via" --daemon-id req1
replays="$(status_field "$SOCK" replays)"
check "replay served from ledger (replays=$replays)" \
  [ "${replays:-0}" -ge 1 ]

# ---- 3: crash isolation ----------------------------------------------
# The SIGSEGV request runs in the background while a healthy request
# completes on the other worker; then the crashed one is diagnosed.
SSTSIM_DAEMON_TEST_SIGNAL=11 "$SSTSIM" "$MODELS/pingpong.json" \
    --daemon "$SOCK" --daemon-out "$WORK/crash" --daemon-id crash1 \
    > "$WORK/crash.out" 2> "$WORK/crash.err" &
CRASH=$!
run "healthy-during-crash" "$SSTSIM" "$MODELS/pingpong.json" \
    --daemon "$SOCK" --daemon-out "$WORK/healthy" --daemon-id healthy1
wait "$CRASH"
crash_code=$?
check "crashed request reports runtime failure (exit $crash_code)" \
  [ "$crash_code" -eq 1 ]
check "crash diagnosed with its signal" \
  grep -q "signal 11" "$WORK/crash.err"
restarts="$(status_field "$SOCK" worker_restarts)"
check "worker respawned after crash (restarts=$restarts)" \
  [ "${restarts:-0}" -ge 1 ]
# The pool still serves after the crash.
run "after-crash" "$SSTSIM" "$MODELS/pingpong.json" --daemon "$SOCK" \
    --daemon-out "$WORK/after"
stop_daemon

# ---- 4: bounded-time overload shedding -------------------------------
start_daemon "$WORK/ov.sock" --workers 1 --queue 2
# Saturate: slow-ish requests fill the single worker + 2 queue slots;
# the rest must be rejected immediately rather than queue unboundedly.
i=0
while [ "$i" -lt 8 ]; do
  "$SSTSIM" "$MODELS/pingpong.json" --daemon "$WORK/ov.sock" \
      --daemon-out "$WORK/ov$i" --daemon-id "ov$i" \
      > "$WORK/ov$i.out" 2> "$WORK/ov$i.err" &
  eval "OVPID_$i=\$!"
  i=$((i + 1))
done
shed=0
i=0
while [ "$i" -lt 8 ]; do
  eval "wait \"\$OVPID_$i\""; code=$?
  if [ "$code" -eq 7 ] && grep -q overloaded "$WORK/ov$i.err"; then
    shed=$((shed + 1))
  fi
  i=$((i + 1))
done
rejected="$(status_field "$WORK/ov.sock" rejected_overloaded)"
check "overload shed with explicit rejection (client-visible=$shed)" \
  [ "$shed" -ge 1 ]
check "daemon counted the shed requests (rejected=$rejected)" \
  [ "${rejected:-0}" -ge 1 ]
stop_daemon

# ---- 5: kill -9 the daemon, restart, exactly-once recovery -----------
start_daemon "$WORK/rec.sock" --workers 1 --queue 16 \
    --state "$WORK/rec.state"
# Burst 6 requests; each client blocks for its done, so background them.
i=0
while [ "$i" -lt 6 ]; do
  "$SSTSIM" "$MODELS/pingpong.json" --daemon "$WORK/rec.sock" \
      --daemon-out "$WORK/rec$i" --daemon-id "rec$i" \
      > /dev/null 2>&1 &
  i=$((i + 1))
done
# Let acceptance (spool + ledger + ack) land, then murder the daemon.
i=0
while [ "$i" -lt 100 ]; do
  accepted="$(status_field "$WORK/rec.sock" accepted 2>/dev/null)"
  [ "${accepted:-0}" -ge 6 ] && break
  i=$((i + 1))
  sleep 0.1
done
kill -9 "$DPID"
wait "$DPID" 2>/dev/null
DPID=""
wait  # in-flight clients die with EOF errors; that's the point
# Restart on the same state: every accepted-but-unfinished request must
# be recovered and completed exactly once.
start_daemon "$WORK/rec.sock" --workers 2 --state "$WORK/rec.state"
i=0
while [ "$i" -lt 200 ]; do
  n=0
  j=0
  while [ "$j" -lt 6 ]; do
    [ -f "$WORK/rec$j/stats.json" ] && n=$((n + 1))
    j=$((j + 1))
  done
  [ "$n" -eq 6 ] && break
  i=$((i + 1))
  sleep 0.1
done
check "all recovered requests completed ($n/6)" [ "$n" -eq 6 ]
# Exactly once: one final ledger record per id, all ok.
j=0
while [ "$j" -lt 6 ]; do
  finals="$(grep -c "\"id\":\"rec$j\",\"status\":\"ok\"" \
      "$WORK/rec.state/requests.jsonl")"
  check "rec$j has exactly one final record (got $finals)" \
    [ "$finals" -eq 1 ]
  j=$((j + 1))
done
# A recovered request replays like any finished one.
run "recovered-replay" "$SSTSIM" "$MODELS/pingpong.json" \
    --daemon "$WORK/rec.sock" --daemon-out "$WORK/rec0" --daemon-id rec0
check "recovered result identical to direct run" \
  cmp -s "$WORK/direct/stats.json" "$WORK/rec0/stats.json"
stop_daemon

# ---- 6: daemon sweep matches the in-process sweep --------------------
cat > "$WORK/sweep.json" <<EOF
{
  "name": "dsmoke",
  "model": "$MODELS/pingpong.json",
  "axes": [
    {"path": "/components/rank0/params/msg_bytes",
     "values": [1024, 4096]},
    {"path": "/network/link_latency", "values": ["20ns", "40ns"]}
  ]
}
EOF
run "sweep-inprocess" "$SSTDSE" run "$WORK/sweep.json" \
    --out "$WORK/sw_direct" --jobs 2
start_daemon "$WORK/sw.sock" --workers 2
run "sweep-daemon" "$SSTDSE" run "$WORK/sweep.json" \
    --out "$WORK/sw_daemon" --daemon "$WORK/sw.sock"
check "daemon sweep results byte-identical to in-process sweep" \
  cmp -s "$WORK/sw_direct/results.csv" "$WORK/sw_daemon/results.csv"
for sweep in sw_direct sw_daemon; do
  for dir in "$WORK/$sweep"/points/p*; do
    check "$sweep/$(basename "$dir") holds model.json, stats.json, run.log" \
      test -f "$dir/model.json" -a -f "$dir/stats.json" -a -f "$dir/run.log"
    check "$sweep/$(basename "$dir")/run.log has the done: line" \
      grep -q "^done: t=" "$dir/run.log"
  done
done

# ---- 7: drain stops the daemon and releases the socket ---------------
run "drain" "$SSTSIMD" --socket "$WORK/sw.sock" --drain
i=0
while [ "$i" -lt 100 ] && kill -0 "$DPID" 2>/dev/null; do
  i=$((i + 1))
  sleep 0.1
done
check "daemon exited after drain" \
  sh -c "! kill -0 $DPID 2>/dev/null"
DPID=""
check "socket released after drain" test ! -e "$WORK/sw.sock"

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "daemon: hardened lifecycle holds (isolation, recovery, shedding)"
