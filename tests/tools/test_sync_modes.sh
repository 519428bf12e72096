#!/bin/sh
# Synchronization acceptance harness (see DESIGN.md "Synchronization").
# Parallel runs synchronize at the exact causal horizon, so the same SDL
# models must produce stats dumps byte-identical to the pinned serial
# golden digest at 1, 2 and 4 ranks — the determinism contract.
#
#   test_sync_modes.sh <sstsim> <source_dir>
set -u

SSTSIM="${1:?usage: test_sync_modes.sh <sstsim> <source_dir>}"
SRC="${2:?missing source dir}"

SYSTEMS="$SRC/examples/systems"
DIGESTS="$SRC/tests/golden/digests.sha256"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail=0

hash_of() { sha256sum "$1" | cut -d' ' -f1; }

golden_digest() {
  awk -v name="$1" '$2 == name { print $1 }' "$DIGESTS"
}

for model in node_ddr3 halo16; do
  case "$model" in
    node_ddr3) sdl="$SYSTEMS/node_ddr3.json"; gold="node_ddr3.r1.csv" ;;
    halo16)    sdl="$SYSTEMS/halo16_torus.json"; gold="halo16.r1.csv" ;;
  esac
  want="$(golden_digest "$gold")"
  if [ -z "$want" ]; then
    echo "sync_modes: no golden digest named $gold in $DIGESTS" >&2
    exit 1
  fi
  for ranks in 1 2 4; do
    out="$WORK/$model.r$ranks.csv"
    if ! "$SSTSIM" "$sdl" --ranks "$ranks" --stats "$out" \
        > /dev/null 2> "$WORK/err"; then
      echo "sync_modes: $model r$ranks run failed:" >&2
      sed 's/^/  | /' "$WORK/err" >&2
      fail=1
      continue
    fi
    got="$(hash_of "$out")"
    if [ "$got" != "$want" ]; then
      echo "sync_modes: $model r$ranks stats drifted from the" >&2
      echo "sync_modes: golden serial digest ($gold)" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "sync_modes: exact-horizon runs byte-identical to goldens at" \
     "1/2/4 ranks"
