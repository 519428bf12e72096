#!/bin/sh
# Virtual-memory subsystem contract, end to end through the real CLIs:
#
#   1. node_vm.json stats are byte-identical at 1/2/4/8 ranks — walks,
#      PTE reads and shootdowns riding the same barriers as demand
#      traffic.
#   2. `--override /vm/enable=false` (the bench's vm_off arm) degrades
#      the TLB to pass-through; a bad /vm override path exits 2 and
#      names the valid alternatives.
#   3. Checkpointing is invisible, and a resume from EVERY retained
#      snapshot — including ones cut while page walks were in flight —
#      converges to byte-identical stats, serial and 4-rank; one-rank
#      snapshots resume at 4 ranks and 4-rank snapshots at one.
#   4. The vm_storm model (periodic shootdown broadcasts with
#      drop/duplicate/delay faults on the invalidation link, both
#      directions) completes cleanly — no deadlock — with identical
#      stats across runs and no broadcast retired at retry_max.
#   5. The tlb_geometry sweep SIGKILLed mid-flight and resumed from its
#      ledger produces the byte-identical Pareto table.
#
#   test_vm.sh <sstsim> <sstdse> <models_dir> <source_dir>
set -u

SSTSIM="${1:?usage: test_vm.sh <sstsim> <sstdse> <models_dir> <source_dir>}"
SSTDSE="${2:?missing sstdse path}"
MODELS="${3:?missing models dir}"
SRC="${4:?missing source dir}"
MODEL="$SRC/examples/systems/node_vm.json"
SWEEP="$SRC/examples/sweeps/tlb_geometry.json"
STORM="$MODELS/vm_storm.json"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

check() {  # check <label> <command...>
  label="$1"; shift
  if ! "$@"; then
    echo "vm: FAIL: $label" >&2
    fail=1
  fi
}

run() {  # run <label> <command...>  (must exit 0)
  label="$1"; shift
  if ! "$@" > "$WORK/$label.out" 2> "$WORK/$label.err"; then
    echo "vm: $label: command failed:" >&2
    sed 's/^/  | /' "$WORK/$label.err" >&2
    fail=1
    return 1
  fi
}

stat_of() {  # stat_of <csv> <component> <statistic>  -> count value
  awk -F, -v c="$2" -v s="$3" \
      '$1 == c && $2 == s && $3 == "count" {print $4}' "$1"
}

# --- 1: rank-count invariance -----------------------------------------
run r1 "$SSTSIM" "$MODEL" --ranks 1 --stats "$WORK/r1.csv"
for r in 2 4 8; do
  run "r$r" "$SSTSIM" "$MODEL" --ranks "$r" --stats "$WORK/r$r.csv"
  check "stats identical at $r ranks" cmp -s "$WORK/r1.csv" "$WORK/r$r.csv"
done
check "the run actually walked page tables" \
    test "$(stat_of "$WORK/r1.csv" ptw walks)" -gt 0
check "the run actually promoted huge pages" \
    test "$(stat_of "$WORK/r1.csv" ptw promotions)" -gt 0

# --- 2: the /vm/enable override, happy and error paths ----------------
run vm_off "$SSTSIM" "$MODEL" --override /vm/enable=false \
    --stats "$WORK/off.csv"
check "vm_off bypasses every request" \
    test "$(stat_of "$WORK/off.csv" tlb bypassed)" -gt 0
check "vm_off never walks" \
    test "$(stat_of "$WORK/off.csv" tlb walks)" -eq 0
"$SSTSIM" "$MODEL" --override /vm/bogus=1 --stats - \
    > /dev/null 2> "$WORK/bad_override.err"
rc=$?
check "bad /vm override exits 2" test "$rc" -eq 2
check "bad /vm override names the alternatives" \
    grep -q "/vm/enable" "$WORK/bad_override.err"

# --- 3: checkpoints are invisible; every snapshot resumes bit-exactly -
# A 5us cadence against the model's 30us window cuts snapshots while
# gups still has loads (and therefore page walks) outstanding; resuming
# from each retained snapshot covers the mid-walk state.
run ckpt1 "$SSTSIM" "$MODEL" --ranks 1 --stats "$WORK/c1.csv" \
    --checkpoint-period 5us --checkpoint-dir "$WORK/cp1" \
    --checkpoint-keep 8
check "checkpointing run matches plain run" \
    cmp -s "$WORK/r1.csv" "$WORK/c1.csv"
n=0
for snap in "$WORK/cp1"/*; do
  n=$((n + 1))
  run "res$n" "$SSTSIM" --restart "$snap" --ranks 1 \
      --stats "$WORK/res$n.csv"
  check "resume from snapshot $n identical" \
      cmp -s "$WORK/r1.csv" "$WORK/res$n.csv"
done
check "multiple mid-run snapshots were taken" test "$n" -ge 2

run ckpt4 "$SSTSIM" "$MODEL" --ranks 4 --stats "$WORK/c4.csv" \
    --checkpoint-period 5us --checkpoint-dir "$WORK/cp4"
check "4-rank checkpointing run matches plain run" \
    cmp -s "$WORK/r1.csv" "$WORK/c4.csv"
run res4 "$SSTSIM" --restart "$WORK/cp4" --ranks 4 \
    --stats "$WORK/res4.csv"
check "4-rank resume identical" cmp -s "$WORK/r1.csv" "$WORK/res4.csv"
# Across rank counts, from the first and from the newest snapshot.
for pair in 1:4 4:1; do
  w="${pair%:*}"; r="${pair#*:}"
  first="$WORK/cp$w/$(ls "$WORK/cp$w" | head -1)"
  for snap in "$first" "$WORK/cp$w"; do
    run "x$w$r" "$SSTSIM" --restart "$snap" --ranks "$r" \
        --stats "$WORK/x.csv"
    check "$w-rank snapshot $(basename "$snap") resumed at $r ranks" \
        cmp -s "$WORK/r1.csv" "$WORK/x.csv"
  done
done

# --- 4: shootdown storm under invalidation-link faults ----------------
run storm1 "$SSTSIM" "$STORM" --stats "$WORK/s1.csv"
run storm2 "$SSTSIM" "$STORM" --stats "$WORK/s2.csv"
check "faulty storm runs are identical" cmp -s "$WORK/s1.csv" "$WORK/s2.csv"
check "storm actually broadcast" \
    test "$(stat_of "$WORK/s1.csv" ptw storm_shootdowns)" -gt 10
check "faults actually forced retries" \
    test "$(stat_of "$WORK/s1.csv" ptw shootdown_retries)" -gt 0
check "no broadcast retired at retry_max" \
    test "$(stat_of "$WORK/s1.csv" ptw shootdowns_failed)" -eq 0

# --- 5: the sweep's Pareto table survives SIGKILL + resume ------------
run sweep_ref "$SSTDSE" run "$SWEEP" --out "$WORK/sw_ref" --jobs 2
check "reference sweep produced a table" test -f "$WORK/sw_ref/results.csv"

"$SSTDSE" run "$SWEEP" --out "$WORK/sw_kill" --jobs 1 \
    > /dev/null 2>&1 &
victim=$!
# Let a few points finish, then kill -9; the resume must pick up the
# ledger without re-running them.  If the sweep won the race and
# finished, the resume is a no-op and the comparison still holds.
sleep 1
kill -9 "$victim" 2>/dev/null
wait "$victim" 2>/dev/null
run sweep_resume "$SSTDSE" run "$SWEEP" --out "$WORK/sw_kill" --jobs 2
check "resumed sweep table identical to uninterrupted run" \
    cmp -s "$WORK/sw_ref/results.csv" "$WORK/sw_kill/results.csv"

if [ "$fail" -ne 0 ]; then
  echo "vm: FAILED" >&2
  exit 1
fi
echo "vm: all checks passed"
exit 0
