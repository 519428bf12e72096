#!/bin/sh
# sstsim exit-code contract:
#   0 success, 1 runtime failure, 2 usage/config error,
#   3 watchdog abort, 4 deadlock detected, 5 restart failed,
#   7 daemon error.
#
#   test_exit_codes.sh <sstsim> <models_dir>
set -u

SSTSIM="${1:?usage: test_exit_codes.sh <sstsim> <models_dir>}"
MODELS="${2:?missing models dir}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

# expect <code> <label> <command...>
expect() {
  want="$1"; label="$2"; shift 2
  "$@" > "$WORK/out" 2> "$WORK/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "exit_codes: $label: expected exit $want, got $got" >&2
    sed 's/^/  | /' "$WORK/err" >&2
    fail=1
  fi
}

expect 0 "clean run"       "$SSTSIM" "$MODELS/pingpong.json"
expect 2 "missing args"    "$SSTSIM"
expect 2 "unknown option"  "$SSTSIM" "$MODELS/pingpong.json" --bogus
expect 2 "missing input"   "$SSTSIM" "$WORK/does_not_exist.json"
expect 2 "unknown type"    "$SSTSIM" "$MODELS/bad_type.json"
expect 2 "bad time value"  "$SSTSIM" "$MODELS/pingpong.json" --end "1 parsec"
expect 3 "watchdog abort"  "$SSTSIM" "$MODELS/hog.json" --watchdog 0.3
expect 4 "deadlock"        "$SSTSIM" "$MODELS/deadlock.json"

# Synchronization-mode additions: every misuse is a usage/config error
# (2); a correctly configured lax run is a clean 0.
expect 2 "bad sync mode"   "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode bogus
expect 2 "lax no skew"     "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode lax
expect 2 "skew no lax"     "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --lax-skew 1us
expect 2 "lax + ckpt"      "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode lax --lax-skew 1us \
                           --checkpoint-period 10us \
                           --checkpoint-dir "$WORK/laxcp"
expect 2 "bad skew value"  "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode lax --lax-skew "1 parsec"
expect 0 "lax clean run"   "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode lax --lax-skew 1us
expect 0 "adaptive run"    "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode adaptive

# Checkpoint/restart additions: bad cadence values are usage errors (2),
# an unusable restart source is the dedicated restart failure (5).
expect 2 "bad ckpt period" "$SSTSIM" "$MODELS/pingpong.json" \
                           --checkpoint-period "1 parsec"
expect 2 "restart + input" "$SSTSIM" "$MODELS/pingpong.json" \
                           --restart "$WORK/nowhere"
expect 5 "restart missing" "$SSTSIM" --restart "$WORK/does_not_exist"
mkdir -p "$WORK/badckpt"
echo "garbage" > "$WORK/badckpt/sim.ckpt.000001"
expect 5 "restart corrupt" "$SSTSIM" --restart "$WORK/badckpt"

# Daemon additions: submitting through sstsimd when it is unreachable is
# the dedicated daemon error (7); daemon-flag misuse stays a usage
# error (2).
expect 7 "daemon no socket"   "$SSTSIM" "$MODELS/pingpong.json" \
                              --daemon "$WORK/no_such_daemon.sock"
touch "$WORK/not_a_socket"
expect 7 "daemon not socket"  "$SSTSIM" "$MODELS/pingpong.json" \
                              --daemon "$WORK/not_a_socket"
expect 2 "daemon-out alone"   "$SSTSIM" "$MODELS/pingpong.json" \
                              --daemon-out "$WORK/dout"
expect 2 "daemon-id alone"    "$SSTSIM" --daemon-id r1
expect 2 "daemon + restart"   "$SSTSIM" --daemon "$WORK/d.sock" \
                              --restart "$WORK/ckpt"

# Non-finite double parameters are configuration errors (2): a NaN bit
# error rate must not silently turn ECC sampling off, and a NaN bandwidth
# must not reach the burst-time cast.
expect 2 "nan ecc ber"     "$SSTSIM" "$MODELS/vm_storm.json" \
                           --override /components/mc/params/ber=nan
expect 2 "nan bandwidth"   "$SSTSIM" "$MODELS/vm_storm.json" \
                           --override /components/mc/params/backend=simple \
                           --override /components/mc/params/bandwidth_gbs=nan
expect 2 "inf bandwidth"   "$SSTSIM" "$MODELS/vm_storm.json" \
                           --override /components/mc/params/backend=simple \
                           --override /components/mc/params/bandwidth_gbs=inf

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "exit_codes: all codes as documented"
