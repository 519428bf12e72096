#!/bin/sh
# Checkpoint/restart contract, end to end through the real CLI:
#
#   1. A run with checkpointing enabled produces stats byte-identical to
#      the same run without it (snapshot writes are invisible).
#   2. Restarting from a mid-run snapshot finishes with stats, trace and
#      metrics byte-identical to the uninterrupted run.
#   3. A run SIGKILLed mid-flight restarts from its latest snapshot and
#      still converges to the reference output (the crash-recovery case
#      the subsystem exists for).
#   4. A truncated newest snapshot falls back to the previous intact one
#      (exit 0, with a diagnostic); a directory with no intact snapshot
#      fails with exit 5.
#   5. A 4-rank run whose period is shorter than its cut-link latency
#      checkpoints at every mark, and its snapshots resume byte-identically.
#   6. A u64 seed survives the system description embedded in a snapshot.
#   7. A snapshot resumes at any rank count: pingpong snapshots written
#      at 1, 2 and 4 ranks resume at 1, 2 and 4 ranks, and a 4-rank
#      node_ddr3 snapshot at 1 and 2 ranks, byte-identical to the plain
#      one-rank run in stats, trace and metrics.
#   8. A stray file whose name overflows a u64 ("sim.ckpt.999...") is
#      not a snapshot: rotation and restart skip it.
#
#   test_checkpoint_restart.sh <sstsim> <models_dir>
set -u

SSTSIM="${1:?usage: test_checkpoint_restart.sh <sstsim> <models_dir>}"
MODELS="${2:?missing models dir}"
MODEL="$MODELS/pingpong.json"
DDR3="$MODELS/../../../examples/systems/node_ddr3.json"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

check() {  # check <label> <command...>
  label="$1"; shift
  if ! "$@"; then
    echo "ckpt_restart: FAIL: $label" >&2
    fail=1
  fi
}

run() {  # run <label> <command...>  (must exit 0)
  label="$1"; shift
  if ! "$@" > "$WORK/$label.out" 2> "$WORK/$label.err"; then
    echo "ckpt_restart: $label: command failed:" >&2
    sed 's/^/  | /' "$WORK/$label.err" >&2
    fail=1
    return 1
  fi
}

# --- 1: checkpointing is invisible to the simulation ------------------
run ref "$SSTSIM" "$MODEL" --ranks 4 --stats "$WORK/ref.csv" \
    --trace "$WORK/ref.trace" --metrics "$WORK/ref.json"
run full "$SSTSIM" "$MODEL" --ranks 4 --stats "$WORK/full.csv" \
    --trace "$WORK/full.trace" --metrics "$WORK/full.json" \
    --checkpoint-period 2us --checkpoint-dir "$WORK/cp" --checkpoint-keep 4
check "checkpointing run matches plain run (stats)" \
    cmp -s "$WORK/ref.csv" "$WORK/full.csv"
check "checkpointing run matches plain run (trace)" \
    cmp -s "$WORK/ref.trace" "$WORK/full.trace"
check "checkpoint files were written" \
    test -f "$WORK/cp/$(ls "$WORK/cp" 2>/dev/null | tail -1)"

# --- 2: resume from a mid-run snapshot is byte-identical --------------
run resume "$SSTSIM" --restart "$WORK/cp" --ranks 4 \
    --stats "$WORK/res.csv" --trace "$WORK/res.trace" \
    --metrics "$WORK/res.json"
check "resumed stats identical"   cmp -s "$WORK/ref.csv"   "$WORK/res.csv"
check "resumed trace identical"   cmp -s "$WORK/ref.trace" "$WORK/res.trace"
check "resumed metrics identical" cmp -s "$WORK/ref.json"  "$WORK/res.json"

# Resume must also work from the OLDEST retained snapshot, not just the
# most recent one.
oldest="$WORK/cp/$(ls "$WORK/cp" | head -1)"
run resume_old "$SSTSIM" --restart "$oldest" --ranks 4 \
    --stats "$WORK/res_old.csv"
check "resume from oldest snapshot identical" \
    cmp -s "$WORK/ref.csv" "$WORK/res_old.csv"

# Turning the simulated-time cadence off on restart (a wall cadence
# keeps the writer installed) must not leave windows capped at the
# restored period mark, which lies before the run's last event.
run resume_wall "$SSTSIM" --restart "$oldest" --ranks 4 \
    --checkpoint-period 0s --checkpoint-wall 100 \
    --checkpoint-dir "$WORK/cpw" --stats "$WORK/res_wall.csv"
check "resume with the period turned off identical" \
    cmp -s "$WORK/ref.csv" "$WORK/res_wall.csv"

# --- 3: SIGKILL mid-run, restart from latest snapshot -----------------
# Slow the victim down with a wall-clock checkpoint cadence so there is
# time to kill it mid-flight; the simulated-time cadence keeps writing
# deterministic snapshots.
rm -rf "$WORK/kcp"
"$SSTSIM" "$MODEL" --ranks 1 --stats "$WORK/kill.csv" \
    --checkpoint-period 2us --checkpoint-dir "$WORK/kcp" \
    > /dev/null 2>&1 &
victim=$!
# Busy-wait until at least two snapshots exist, then kill -9.
tries=0
while [ "$(ls "$WORK/kcp" 2>/dev/null | wc -l)" -lt 2 ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 2000 ]; then break; fi
  if ! kill -0 "$victim" 2>/dev/null; then break; fi
done
kill -9 "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
if [ "$(ls "$WORK/kcp" 2>/dev/null | wc -l)" -lt 1 ]; then
  # The run finished before we could kill it — snapshots still exist
  # unless rotation removed them all, which keep>=1 forbids.
  echo "ckpt_restart: FAIL: no snapshot survived the kill window" >&2
  fail=1
else
  run killres "$SSTSIM" --restart "$WORK/kcp" --ranks 1 \
      --stats "$WORK/killres.csv"
  run killref "$SSTSIM" "$MODEL" --ranks 1 --stats "$WORK/killref.csv"
  check "post-kill restart converges to reference" \
      cmp -s "$WORK/killref.csv" "$WORK/killres.csv"
fi

# --- 4: corrupt-snapshot handling -------------------------------------
newest="$WORK/cp/$(ls "$WORK/cp" | tail -1)"
dd if=/dev/null of="$newest" bs=1 seek=100 2>/dev/null  # truncate to 100B
run fallback "$SSTSIM" --restart "$WORK/cp" --ranks 4 \
    --stats "$WORK/fb.csv"
check "fallback restart still byte-identical" \
    cmp -s "$WORK/ref.csv" "$WORK/fb.csv"
check "fallback diagnostic names the rejected file" \
    grep -q "checkpoint rejected" "$WORK/fallback.err"

mkdir -p "$WORK/bad"
echo "not a checkpoint" > "$WORK/bad/sim.ckpt.000001"
"$SSTSIM" --restart "$WORK/bad" --stats - > /dev/null 2> "$WORK/bad.err"
rc=$?
check "no intact snapshot exits 5" test "$rc" -eq 5
check "exit-5 diagnostic says restart failed" \
    grep -q "restart failed" "$WORK/bad.err"

# --- 5: a period shorter than the cut-link latency --------------------
# The model's 4-rank cut links have 20ns latency.  Windows end at each
# 19ns mark, so the period is honoured at any rank count; resuming from
# the first snapshot and from the newest one both reach the plain run.
run sref "$SSTSIM" "$MODEL" --ranks 4 --end 30us --stats "$WORK/sref.csv"
run short "$SSTSIM" "$MODEL" --ranks 4 --end 30us --stats "$WORK/short.csv" \
    --checkpoint-period 19ns --checkpoint-dir "$WORK/scp" --checkpoint-keep 0
check "sub-latency checkpointing run matches plain run" \
    cmp -s "$WORK/sref.csv" "$WORK/short.csv"
check "sub-latency run wrote more than one snapshot" \
    test -f "$WORK/scp/sim.ckpt.000002"
run sres_first "$SSTSIM" --restart "$WORK/scp/sim.ckpt.000001" --ranks 4 \
    --stats "$WORK/sres_first.csv"
check "resume from the first sub-latency snapshot identical" \
    cmp -s "$WORK/sref.csv" "$WORK/sres_first.csv"
run sres_last "$SSTSIM" --restart "$WORK/scp" --ranks 4 \
    --stats "$WORK/sres_last.csv"
check "resume from the newest sub-latency snapshot identical" \
    cmp -s "$WORK/sref.csv" "$WORK/sres_last.csv"

# --- 6: a u64 seed survives the embedded system description ----------
# The snapshot embeds the seed as text; a JSON number would round it to
# a double that no longer fits a u64, and the restart would exit 5.
SEED=18446744073709551615
run useed_ref "$SSTSIM" "$MODEL" --end 20us --seed "$SEED" \
    --stats "$WORK/useed_ref.csv"
run useed_cp "$SSTSIM" "$MODEL" --end 20us --seed "$SEED" \
    --checkpoint-period 5us --checkpoint-dir "$WORK/ucp" --checkpoint-keep 0
check "snapshot embeds the u64 seed" \
    grep -q -a "$SEED" "$WORK/ucp/sim.ckpt.000001"
run useed_res "$SSTSIM" --restart "$WORK/ucp/sim.ckpt.000001" \
    --stats "$WORK/useed_res.csv"
check "resume with a u64 seed identical" \
    cmp -s "$WORK/useed_ref.csv" "$WORK/useed_res.csv"

# --- 7: a snapshot resumes at any rank count -------------------------
# resume_everywhere <label> <ref prefix> <snapshot dir> <ranks...>: the
# first and the newest snapshot resumed at each rank count must match
# <ref prefix>.csv/.trace/.json.
resume_everywhere() {
  # (sh has no locals: names distinct from run's and check's "label")
  what="$1"; ref="$2"; dir="$3"; shift 3
  check "$what wrote more than one snapshot" \
      test "$(ls "$dir" | wc -l)" -ge 2
  first="$dir/$(ls "$dir" | head -1)"
  for r in "$@"; do
    for snap in "$first" "$dir"; do
      run "$what.r$r" "$SSTSIM" --restart "$snap" --ranks "$r" \
          --stats "$WORK/any.csv" --trace "$WORK/any.trace" \
          --metrics "$WORK/any.json" || continue
      for f in csv trace json; do
        check "$what $(basename "$snap") resumed at $r ranks ($f)" \
            cmp -s "$ref.$f" "$WORK/any.$f"
      done
    done
  done
}
run x_ref "$SSTSIM" "$MODEL" --ranks 1 --stats "$WORK/x_ref.csv" \
    --trace "$WORK/x_ref.trace" --metrics "$WORK/x_ref.json"
for w in 1 2 4; do
  run "x_w$w" "$SSTSIM" "$MODEL" --ranks "$w" --stats /dev/null \
      --trace "$WORK/x_w$w.trace" --metrics "$WORK/x_w$w.json" \
      --checkpoint-period 200us --checkpoint-dir "$WORK/xcp$w" \
      --checkpoint-keep 0
  resume_everywhere "pingpong.w$w" "$WORK/x_ref" "$WORK/xcp$w" 1 2 4
done
# The 500ps metrics period shares the core's clock, so the sampler's
# place among the core's handlers shows in the metrics.
run d_ref "$SSTSIM" "$DDR3" --ranks 1 --end 10us --metrics-period 500ps \
    --stats "$WORK/d_ref.csv" --trace "$WORK/d_ref.trace" \
    --metrics "$WORK/d_ref.json"
run d_w4 "$SSTSIM" "$DDR3" --ranks 4 --end 10us --metrics-period 500ps \
    --stats /dev/null --trace "$WORK/d_w4.trace" \
    --metrics "$WORK/d_w4.json" --checkpoint-period 2us \
    --checkpoint-dir "$WORK/dcp" --checkpoint-keep 0
resume_everywhere "node_ddr3.w4" "$WORK/d_ref" "$WORK/dcp" 1 2

# --- 8: a name that overflows a u64 is not a snapshot ----------------
mkdir -p "$WORK/stray"
touch "$WORK/stray/sim.ckpt.99999999999999999999999"
run stray_w "$SSTSIM" "$MODEL" --ranks 2 --end 20us \
    --checkpoint-period 2us --checkpoint-dir "$WORK/stray" \
    --checkpoint-keep 2 --stats "$WORK/stray_ref.csv"
if grep -q "checkpoint write failed" "$WORK/stray_w.err"; then
  echo "ckpt_restart: FAIL: a stray name made checkpoint writes fail" >&2
  fail=1
fi
check "rotation keeps two snapshots beside the stray name" \
    test "$(ls "$WORK/stray" | wc -l)" -eq 3
run stray_r "$SSTSIM" --restart "$WORK/stray" --ranks 2 \
    --stats "$WORK/stray.csv"
check "restart past a stray name identical" \
    cmp -s "$WORK/stray_ref.csv" "$WORK/stray.csv"

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "ckpt_restart: all checkpoint/restart contracts hold"
