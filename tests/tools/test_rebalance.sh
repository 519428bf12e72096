#!/bin/sh
# Online-repartitioning acceptance harness (see DESIGN.md "Online
# repartitioning").
#
#   1. The pinned corpus models run with --rebalance at 1/2/4 ranks and
#      must reproduce the golden serial digests byte for byte — turning
#      the rebalancer on is invisible to the model even when it never
#      fires.
#   2. The moving-hotspot model (rebalance_mode on in its SDL) produces
#      byte-identical stats at 1/2/4/8 ranks while actually migrating
#      components (engine.rebalance migrations >= 1 under
#      --profile-engine).
#   3. A checkpoint taken after migrations restores byte-identically:
#      a mid-run snapshot of the rebalanced run resumes to the same
#      stats as the uninterrupted run, at 4 ranks and at 1 and 2; and a
#      one-rank snapshot resumes at 4 ranks, where it rebalances.
#   4. The hotspot's metrics JSONL (--metrics-period 20us) is
#      byte-identical at 1/2/4/8 ranks.
#   5. Clocked components migrate: quad_gups (four GUPS nodes, every
#      component pinned to rank 0) produces byte-identical stats at
#      1/2/4 ranks and metrics at 1/2 ranks while moving components, and
#      its 4-rank snapshots resume byte-identically at 1, 2 and 4 ranks.
#
#   test_rebalance.sh <sstsim> <source_dir>
set -u

SSTSIM="${1:?usage: test_rebalance.sh <sstsim> <source_dir>}"
SRC="${2:?missing source dir}"

SYSTEMS="$SRC/examples/systems"
DIGESTS="$SRC/tests/golden/digests.sha256"
HOTSPOT="$SYSTEMS/moving_hotspot.json"
QUAD="$SRC/tests/tools/models/quad_gups.json"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

hash_of() { sha256sum "$1" | cut -d' ' -f1; }

golden_digest() {
  awk -v name="$1" '$2 == name { print $1 }' "$DIGESTS"
}

# --- 1: --rebalance leaves the pinned corpus untouched ----------------
for model in node_ddr3 halo16; do
  case "$model" in
    node_ddr3) sdl="$SYSTEMS/node_ddr3.json"; gold="node_ddr3.r1.csv" ;;
    halo16)    sdl="$SYSTEMS/halo16_torus.json"; gold="halo16.r1.csv" ;;
  esac
  want="$(golden_digest "$gold")"
  if [ -z "$want" ]; then
    echo "rebalance: no golden digest named $gold in $DIGESTS" >&2
    exit 1
  fi
  for ranks in 1 2 4; do
    out="$WORK/$model.r$ranks.csv"
    if ! "$SSTSIM" "$sdl" --ranks "$ranks" --rebalance --stats "$out" \
        > /dev/null 2> "$WORK/err"; then
      echo "rebalance: $model r$ranks run failed:" >&2
      sed 's/^/  | /' "$WORK/err" >&2
      fail=1
      continue
    fi
    got="$(hash_of "$out")"
    if [ "$got" != "$want" ]; then
      echo "rebalance: $model r$ranks stats drifted from the" >&2
      echo "rebalance: golden serial digest ($gold)" >&2
      fail=1
    fi
  done
done

# --- 2: the moving-hotspot model is rank-count invariant --------------
run() {  # run <label> <command...>  (must exit 0)
  label="$1"; shift
  if ! "$@" > "$WORK/$label.out" 2> "$WORK/$label.err"; then
    echo "rebalance: $label: command failed:" >&2
    sed 's/^/  | /' "$WORK/$label.err" >&2
    fail=1
    return 1
  fi
}

run hot_r1 "$SSTSIM" "$HOTSPOT" --ranks 1 --stats "$WORK/hot.r1.csv"
for ranks in 2 4 8; do
  run "hot_r$ranks" "$SSTSIM" "$HOTSPOT" --ranks "$ranks" \
      --stats "$WORK/hot.r$ranks.csv" || continue
  if ! cmp -s "$WORK/hot.r1.csv" "$WORK/hot.r$ranks.csv"; then
    echo "rebalance: hotspot r$ranks stats differ from serial" >&2
    fail=1
  fi
done

# The invariance above must not be vacuous: under --profile-engine the
# 4-rank run has to report actual migration passes.
run hot_prof "$SSTSIM" "$HOTSPOT" --ranks 4 --profile-engine \
    --stats "$WORK/hot.prof.csv"
moves="$(awk -F, '$1 == "engine.rebalance" && $2 == "migrations" \
    { print $4 }' "$WORK/hot.prof.csv")"
if [ -z "$moves" ] || [ "$moves" -lt 1 ]; then
  echo "rebalance: hotspot r4 reported no migration passes ('$moves')" >&2
  fail=1
fi

# --- 3: checkpoint after migration resumes byte-identically -----------
# 100us cadence on a 400us run: the first snapshot lands well after the
# rebalancer has begun migrating (it fires every 8 epochs).
run hot_ckpt "$SSTSIM" "$HOTSPOT" --ranks 4 --stats "$WORK/hot.ckpt.csv" \
    --checkpoint-period 100us --checkpoint-dir "$WORK/cp" \
    --checkpoint-keep 8
if ! cmp -s "$WORK/hot.r1.csv" "$WORK/hot.ckpt.csv"; then
  echo "rebalance: checkpointing run drifted from the plain run" >&2
  fail=1
fi
run hot_resume "$SSTSIM" --restart "$WORK/cp" --ranks 4 \
    --stats "$WORK/hot.resume.csv"
if ! cmp -s "$WORK/hot.r1.csv" "$WORK/hot.resume.csv"; then
  echo "rebalance: restart from a post-migration snapshot is not" >&2
  echo "rebalance: byte-identical to the uninterrupted run" >&2
  fail=1
fi
# Resume from the oldest retained snapshot too: it forces the restored
# run to replay (and re-apply) later migrations itself.
oldest="$WORK/cp/$(ls "$WORK/cp" | head -1)"
run hot_resume_old "$SSTSIM" --restart "$oldest" --ranks 4 \
    --stats "$WORK/hot.resume_old.csv"
if ! cmp -s "$WORK/hot.r1.csv" "$WORK/hot.resume_old.csv"; then
  echo "rebalance: restart from the oldest snapshot drifted" >&2
  fail=1
fi
# resume_at <snapshot dir> <ranks> [<want stats>]: the oldest and the
# newest snapshot, resumed at <ranks> with verbose engine output in
# $WORK/x.<dir>.<oldest|newest>.at<ranks>.err, must reproduce <want
# stats> (default: the hotspot's).
resume_at() {
  want="${3:-$WORK/hot.r1.csv}"
  for which in oldest newest; do
    snap="$1"
    if [ "$which" = oldest ]; then snap="$1/$(ls "$1" | head -1)"; fi
    x="$(basename "$1").$which.at$2"
    run "x.$x" "$SSTSIM" --restart "$snap" --ranks "$2" \
        --override /config/verbose=true --stats "$WORK/x.$x.csv" || continue
    if ! cmp -s "$want" "$WORK/x.$x.csv"; then
      echo "rebalance: $1 snapshot $x is not byte-identical" >&2
      fail=1
    fi
  done
}
# The post-migration 4-rank snapshots, resumed at 1 and 2 ranks.
resume_at "$WORK/cp" 1
resume_at "$WORK/cp" 2
# One-rank snapshots carry no per-component epoch counts; resumed at 4
# ranks, the run must still rebalance.  (150us: the newest snapshot,
# at 300us, leaves the run time to migrate.)
run hot_ckpt1 "$SSTSIM" "$HOTSPOT" --ranks 1 --stats /dev/null \
    --checkpoint-period 150us --checkpoint-dir "$WORK/cp1" \
    --checkpoint-keep 8
resume_at "$WORK/cp1" 4
for x in cp1.oldest.at4 cp1.newest.at4; do
  if ! grep -q "rebalance @" "$WORK/x.$x.err"; then
    echo "rebalance: one-rank snapshot $x never migrated a component" >&2
    fail=1
  fi
done

# --- 4: migrated components keep their metrics samples ---------------
for ranks in 1 2 4 8; do
  run "hot_m$ranks" "$SSTSIM" "$HOTSPOT" --ranks "$ranks" --stats /dev/null \
      --metrics "$WORK/hot.m$ranks.jsonl" --metrics-period 20us || continue
  if [ "$ranks" -gt 1 ] &&
      ! cmp -s "$WORK/hot.m1.jsonl" "$WORK/hot.m$ranks.jsonl"; then
    echo "rebalance: hotspot r$ranks metrics differ from serial" >&2
    fail=1
  fi
done

# --- 5: clocked components migrate ------------------------------------
for ranks in 1 2; do
  run "quad_r$ranks" "$SSTSIM" "$QUAD" --ranks "$ranks" \
      --stats "$WORK/quad.r$ranks.csv" \
      --metrics "$WORK/quad.m$ranks.jsonl" --metrics-period 1us
done
if ! cmp -s "$WORK/quad.m1.jsonl" "$WORK/quad.m2.jsonl"; then
  echo "rebalance: quad_gups r2 metrics differ from serial" >&2
  fail=1
fi
run quad_r4 "$SSTSIM" "$QUAD" --ranks 4 --stats "$WORK/quad.r4.csv" \
    --checkpoint-period 100us --checkpoint-dir "$WORK/cpq" \
    --checkpoint-keep 8
for ranks in 2 4; do
  if ! cmp -s "$WORK/quad.r1.csv" "$WORK/quad.r$ranks.csv"; then
    echo "rebalance: quad_gups r$ranks stats differ from serial" >&2
    fail=1
  fi
  run "quad_prof$ranks" "$SSTSIM" "$QUAD" --ranks "$ranks" \
      --profile-engine --stats "$WORK/quad.prof$ranks.csv" || continue
  moved="$(awk -F, '$1 == "engine.rebalance" && \
      $2 == "components_moved" { print $4 }' "$WORK/quad.prof$ranks.csv")"
  if [ -z "$moved" ] || [ "$moved" -lt 1 ]; then
    echo "rebalance: quad_gups r$ranks moved no component ('$moved')" >&2
    fail=1
  fi
done
for ranks in 1 2 4; do
  resume_at "$WORK/cpq" "$ranks" "$WORK/quad.r1.csv"
done

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "rebalance: corpus goldens unchanged under --rebalance;" \
     "hotspot stats and metrics byte-identical at 1/2/4/8 ranks with" \
     "$moves migration passes; quad_gups byte-identical at 1/2/4 ranks" \
     "while migrating clocked components; post-migration checkpoints" \
     "resume byte-identically"
