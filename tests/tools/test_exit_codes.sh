#!/bin/sh
# sstsim exit-code contract:
#   0 success, 1 runtime failure, 2 usage/config error,
#   3 watchdog abort, 4 deadlock detected, 5 restart failed,
#   7 daemon error.
# plus the usage errors (2) of sstdse and sstsimd.
#
#   test_exit_codes.sh <sstsim> <models_dir> <sstdse> <sstsimd>
set -u

SSTSIM="${1:?usage: test_exit_codes.sh <sstsim> <models_dir> <sstdse> <sstsimd>}"
MODELS="${2:?missing models dir}"
SSTDSE="${3:?missing sstdse path}"
SSTSIMD="${4:?missing sstsimd path}"

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

# The watchdog still fires while ranks are parked at the window barrier,
# spinning or blocked (8 ranks outnumber a 4-CPU host's CPUs, so there
# its waiters block at once), and the run ends within a few seconds of
# the 0.3 s budget.
for ranks in 4 8; do
  start=$(date +%s)
  expect 3 "watchdog abort at $ranks ranks" "$SSTSIM" "$MODELS/hog.json" \
         --ranks "$ranks" --watchdog 0.3
  took=$(( $(date +%s) - start ))
  if [ "$took" -gt 5 ]; then
    echo "exit_codes: watchdog abort at $ranks ranks took ${took}s" >&2
    fail=1
  fi
done

# Removed synchronization inputs: the lax/adaptive flags and SDL keys
# are usage/config errors (2) whose message names the removal; a
# mistyped config key is an error too, and "sync_mode": "conservative"
# (still written by older descriptions) is a clean 0.
# removed <label>: the last expect's stderr names the removal.
removed() {
  if ! grep -q 'removed' "$WORK/err"; then
    echo "exit_codes: $1: message does not name the removal:" >&2
    sed 's/^/  | /' "$WORK/err" >&2
    fail=1
  fi
}
# with_config <name> <json members>: pingpong.json with a config section
# of seed 2 plus the given members.
with_config() {
  sed "s/\"config\": {\"seed\": 2}/\"config\": {\"seed\": 2, $2}/" \
      "$MODELS/pingpong.json" > "$WORK/$1.json"
}
expect 2 "--sync-mode"     "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-mode adaptive
removed "--sync-mode"
expect 2 "--lax-skew"      "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --lax-skew 1us
removed "--lax-skew"
expect 2 "--sync-window-max" "$SSTSIM" "$MODELS/pingpong.json" --ranks 2 \
                           --sync-window-max 10us
removed "--sync-window-max"
with_config typo '"end_tme": "1ns"'
expect 2 "mistyped config key" "$SSTSIM" "$WORK/typo.json"
if ! grep -q "unknown config key 'end_tme' (known: end_time," "$WORK/err"; then
  echo "exit_codes: mistyped config key: known keys not listed" >&2
  fail=1
fi
with_config lax_skew '"lax_skew": "2us"'
expect 2 "sdl lax_skew"    "$SSTSIM" "$WORK/lax_skew.json" --ranks 2
removed "sdl lax_skew"
with_config window_max '"sync_window_max": "10us"'
expect 2 "sdl sync_window_max" "$SSTSIM" "$WORK/window_max.json" --ranks 2
removed "sdl sync_window_max"
with_config lax_mode '"sync_mode": "lax"'
expect 2 "sdl sync_mode lax" "$SSTSIM" "$WORK/lax_mode.json" --ranks 2
removed "sdl sync_mode lax"
with_config conservative '"sync_mode": "conservative"'
expect 0 "sdl sync_mode conservative" "$SSTSIM" "$WORK/conservative.json" \
                           --ranks 2

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

# Counts that size worker pools and rank vectors, and wall-clock
# budgets: negative, garbage, non-finite or out-of-range values are
# usage/config errors (2) whose message names the flag or key, raised
# before anything is allocated or forked.
# names <label> <text>: the last expect's stderr contains <text>.
names() {
  if ! grep -q -e "$2" "$WORK/err"; then
    echo "exit_codes: $1: message does not name '$2':" >&2
    sed 's/^/  | /' "$WORK/err" >&2
    fail=1
  fi
}
# sweep_with_run <name> <run members>: a one-point pingpong sweep spec.
sweep_with_run() {
  printf '%s\n' "{\"name\": \"$1\", \"model\": \"$MODELS/pingpong.json\"," \
    ' "axes": [{"path": "/components/rank0/params/msg_bytes", "values": [64]}],' \
    " \"run\": {$2}}" > "$WORK/$1.json"
}
sweep_with_run conc_neg '"concurrency": -1'
expect 2 "run.concurrency -1" "$SSTDSE" run "$WORK/conc_neg.json" \
                           --out "$WORK/conc_neg.sweep"
names "run.concurrency -1" "run.concurrency"
sweep_with_run conc_big '"concurrency": 1e12'
expect 2 "run.concurrency 1e12" "$SSTDSE" run "$WORK/conc_big.json" \
                           --out "$WORK/conc_big.sweep"
names "run.concurrency 1e12" "run.concurrency"
sweep_with_run retries_neg '"retries": -3'
expect 2 "run.retries -3"  "$SSTDSE" run "$WORK/retries_neg.json" \
                           --out "$WORK/retries_neg.sweep"
names "run.retries -3" "run.retries"
sweep_with_run backoff_neg '"backoff_seconds": -5'
expect 2 "run.backoff_seconds -5" "$SSTDSE" run "$WORK/backoff_neg.json" \
                           --out "$WORK/backoff_neg.sweep"
names "run.backoff_seconds -5" "run.backoff_seconds"
sweep_with_run ok_run '"concurrency": 1'
expect 2 "sstdse --jobs -1" "$SSTDSE" run "$WORK/ok_run.json" \
                           --out "$WORK/jobs.sweep" --jobs -1
names "sstdse --jobs -1" "--jobs"
expect 2 "sstdse --sstsim" "$SSTDSE" run "$WORK/ok_run.json" \
                           --out "$WORK/sstsim.sweep" --sstsim "$SSTSIM"
removed "sstdse --sstsim"
expect 2 "sstsimd --workers -1" "$SSTSIMD" --socket "$WORK/w.sock" \
                           --workers -1
names "sstsimd --workers -1" "--workers"
expect 2 "--ranks -1"      "$SSTSIM" "$MODELS/pingpong.json" --ranks -1
names "--ranks -1" "--ranks"
with_config ranks_neg '"num_ranks": -1'
expect 2 "sdl num_ranks -1" "$SSTSIM" "$WORK/ranks_neg.json"
names "sdl num_ranks -1" "num_ranks"
expect 2 "--ranks 3abc"    "$SSTSIM" "$MODELS/pingpong.json" --ranks 3abc
names "--ranks 3abc" "--ranks"
expect 2 "--watchdog nan"  "$SSTSIM" "$MODELS/pingpong.json" --watchdog nan
names "--watchdog nan" "--watchdog"
expect 2 "--watchdog -5"   "$SSTSIM" "$MODELS/pingpong.json" --watchdog -5
names "--watchdog -5" "--watchdog"

# SDL numbers that size or place things take the checks their flags
# take: a negative keep must not turn rotation off, a negative wall
# cadence must not turn the trigger off, and a fractional, negative or
# huge rank or fault port must not be truncated or wrapped into range.
# with_section <name> <json member>: pingpong.json plus one top-level
# member.
with_section() {
  sed "s/\"links\": \[\],/\"links\": [], $2,/" \
      "$MODELS/pingpong.json" > "$WORK/$1.json"
}
with_section keep_neg '"checkpointing": {"period": "5us", "keep": -1}'
expect 2 "sdl checkpointing.keep -1" "$SSTSIM" "$WORK/keep_neg.json" \
                           --checkpoint-dir "$WORK/keep_neg.cp"
names "sdl checkpointing.keep -1" "checkpointing.keep"
with_section wall_neg '"checkpointing": {"wall_seconds": -5}'
expect 2 "sdl checkpointing.wall_seconds -5" "$SSTSIM" "$WORK/wall_neg.json" \
                           --checkpoint-dir "$WORK/wall_neg.cp"
names "sdl checkpointing.wall_seconds -5" "checkpointing.wall_seconds"
# with_rank <name> <value>: pingpong.json with component rank0 pinned.
with_rank() {
  sed "s/{\"name\": \"rank0\", \"type\": \"net.PingPong\",/{\"name\": \"rank0\", \"type\": \"net.PingPong\", \"rank\": $2,/" \
      "$MODELS/pingpong.json" > "$WORK/$1.json"
}
for r in 2.7 -1 1e12; do
  with_rank "rank_$r" "$r"
  expect 2 "sdl rank $r"   "$SSTSIM" "$WORK/rank_$r.json" --ranks 4
  names "sdl rank $r" "component 'rank0' rank"
done
with_section port_neg \
  '"faults": {"ports": [{"router": "rtr0", "port": -1, "fail_at": "5us"}]}'
expect 2 "sdl fault port -1" "$SSTSIM" "$WORK/port_neg.json"
names "sdl fault port -1" "port fault on 'rtr0': port"
with_section fseed_neg '"faults": {"seed": -1}'
expect 2 "sdl faults.seed -1" "$SSTSIM" "$WORK/fseed_neg.json"
names "sdl faults.seed -1" "fault_seed"

# Run settings: each of the config, observability, checkpointing and
# network sections rejects a key it does not know, naming it, and a
# count or wall budget refuses fractions, unit suffixes and negatives
# from the SDL, from --override and from its flag alike.
with_section ckpt_typo '"checkpointing": {"perod": "1us"}'
expect 2 "sdl checkpointing.perod" "$SSTSIM" "$WORK/ckpt_typo.json"
names "sdl checkpointing.perod" "unknown checkpointing key 'perod'"
with_section obs_typo '"observability": {"trce": "t.json"}'
expect 2 "sdl observability.trce" "$SSTSIM" "$WORK/obs_typo.json"
names "sdl observability.trce" "unknown observability key 'trce'"
sed 's/"link_latency": "20ns",/"link_latency": "20ns", "linklatency": "5ns",/' \
    "$MODELS/pingpong.json" > "$WORK/net_typo.json"
expect 2 "sdl network.linklatency" "$SSTSIM" "$WORK/net_typo.json"
names "sdl network.linklatency" "unknown network key 'linklatency'"
expect 2 "override num_ranks 2.7" "$SSTSIM" "$MODELS/pingpong.json" \
                           --override /config/num_ranks=2.7
names "override num_ranks 2.7" "/config/num_ranks"
expect 2 "override num_ranks 2KiB" "$SSTSIM" "$MODELS/pingpong.json" \
                           --override /config/num_ranks=2KiB
names "override num_ranks 2KiB" "/config/num_ranks"
with_config ranks_frac '"num_ranks": 2.7'
expect 2 "sdl num_ranks 2.7" "$SSTSIM" "$WORK/ranks_frac.json"
names "sdl num_ranks 2.7" "config.num_ranks"
expect 2 "override seed 1.5" "$SSTSIM" "$MODELS/pingpong.json" \
                           --override /config/seed=1.5
names "override seed 1.5" "/config/seed"
expect 2 "override watchdog -5" "$SSTSIM" "$MODELS/pingpong.json" \
                           --override /config/watchdog_seconds=-5
names "override watchdog -5" "/config/watchdog_seconds"
with_config watchdog_neg '"watchdog_seconds": -5'
expect 2 "sdl watchdog_seconds -5" "$SSTSIM" "$WORK/watchdog_neg.json"
names "sdl watchdog_seconds -5" "config.watchdog_seconds"
# The daemon always writes <daemon-out>/stats.json, so the stats flags
# are usage errors with --daemon, refused before any connection.
expect 2 "daemon + --stats" "$SSTSIM" "$MODELS/pingpong.json" \
                           --daemon "$WORK/d.sock" --stats "$WORK/s.csv"
names "daemon + --stats" "--stats"
expect 2 "daemon + --stats-format" "$SSTSIM" "$MODELS/pingpong.json" \
                           --daemon "$WORK/d.sock" --stats-format json
names "daemon + --stats-format" "--stats-format"

# Every other object of a description checks its member names too: a
# misspelled section, link, vm or fault key exits 2 naming the key and
# the known ones, instead of running without it.
SYSTEMS="$(cd "$MODELS/../../../examples/systems" && pwd)"
sed 's/"drop": 1.0}/"dorp": 1.0}/' "$MODELS/deadlock.json" \
    > "$WORK/dorp.json"
expect 2 "sdl link fault dorp" "$SSTSIM" "$WORK/dorp.json"
names "sdl link fault dorp" "unknown link fault key 'dorp' (known: component,"
sed 's/"faults": {/"faultz": {/' "$MODELS/deadlock.json" > "$WORK/faultz.json"
expect 2 "sdl faultz section" "$SSTSIM" "$WORK/faultz.json"
names "sdl faultz section" "unknown top-level key 'faultz' (known: config,"
sed 's/"latency": "2ns"/"latncy": "2ns"/' "$SYSTEMS/node_ddr3.json" \
    > "$WORK/latncy.json"
expect 2 "sdl link latncy" "$SSTSIM" "$WORK/latncy.json"
names "sdl link latncy" "unknown link key 'latncy' (known: from,"
sed 's/"enable": true/"enabel": false/' "$SYSTEMS/node_vm.json" \
    > "$WORK/enabel.json"
expect 2 "sdl vm enabel" "$SSTSIM" "$WORK/enabel.json"
names "sdl vm enabel" "unknown vm key 'enabel' (known: enable,"

# Component params and the vm tlb/walker defaults take only the keys
# their type registers (sstsim --list-components): an undeclared one
# exits 2 naming the key, the component and its type, and the declared
# keys, from the SDL, an override and a sweep axis alike.
L1_KEYS="(known: size, line_size, assoc, hit_latency, mshrs, prefetch, prefetch_degree)"
sed 's/"size": "32KiB",/"size": "32KiB", "sizee": "64KiB",/' \
    "$SYSTEMS/node_ddr3.json" > "$WORK/sizee.json"
expect 2 "sdl param sizee" "$SSTSIM" "$WORK/sizee.json"
names "sdl param sizee" "component 'l1' (mem.Cache): unknown param 'sizee' $L1_KEYS"
expect 2 "override param sizee" "$SSTSIM" "$SYSTEMS/node_ddr3.json" \
                           --override /components/l1/params/sizee=64KiB
names "override param sizee" "component 'l1' (mem.Cache): unknown param 'sizee' $L1_KEYS"
expect 2 "override vm tlb l1_setz" "$SSTSIM" "$SYSTEMS/node_vm.json" \
                           --override /vm/tlb/l1_setz=64
names "override vm tlb l1_setz" "vm.tlb (vm.Tlb): unknown param 'l1_setz' (known: levels, l1_sets,"
sed 's/"walk_depth": 4/"walk_dept": 4/' "$SYSTEMS/node_vm.json" \
    > "$WORK/walk_dept.json"
expect 2 "sdl vm walker walk_dept" "$SSTSIM" "$WORK/walk_dept.json"
names "sdl vm walker walk_dept" "vm.walker (vm.PageTableWalker): unknown param 'walk_dept' (known: num_tlbs, walk_depth,"
printf '%s\n' "{\"name\": \"sizee\", \"model\": \"$SYSTEMS/node_ddr3.json\"," \
  ' "axes": [{"path": "/components/l1/params/sizee", "values": ["64KiB"]}]}' \
  > "$WORK/sizee_sweep.json"
expect 2 "sweep axis sizee" "$SSTDSE" run "$WORK/sizee_sweep.json" \
                           --out "$WORK/sizee.sweep" -q
names "sweep axis sizee" "component 'l1' (mem.Cache): unknown param 'sizee' $L1_KEYS"
if [ -e "$WORK/sizee.sweep/points" ] || [ -e "$WORK/sizee.sweep/ledger.jsonl" ]; then
  echo "exit_codes: sweep axis sizee: a point ran before the axis was checked" >&2
  fail=1
fi

# Restart refusals (5).  --profile-engine and --trace-engine output is
# per rank, so a resume with either, set by the snapshot's description
# or by the command line, needs the writer's rank count; the message
# names the flag and that count.  A version-2 snapshot names its version.
"$SSTSIM" "$MODELS/pingpong.json" --ranks 2 --profile-engine \
    --checkpoint-period 100us --checkpoint-dir "$WORK/pcp" \
    --stats /dev/null > /dev/null 2>&1
expect 5 "restart --profile-engine at 4 of 2 ranks" \
    "$SSTSIM" --restart "$WORK/pcp" --ranks 4 --stats /dev/null
names "restart --profile-engine at 4 of 2 ranks" \
    "--profile-engine output is per rank, so this checkpoint resumes only at the 2 rank(s)"
expect 0 "restart --profile-engine at 2 ranks" \
    "$SSTSIM" --restart "$WORK/pcp" --ranks 2 --stats /dev/null
"$SSTSIM" "$MODELS/pingpong.json" --ranks 2 --trace "$WORK/t.json" \
    --checkpoint-period 100us --checkpoint-dir "$WORK/tcp" \
    --stats /dev/null > /dev/null 2>&1
expect 5 "restart --trace-engine at 4 of 2 ranks" \
    "$SSTSIM" --restart "$WORK/tcp" --ranks 4 --trace-engine --stats /dev/null
names "restart --trace-engine at 4 of 2 ranks" \
    "--trace-engine output is per rank, so this checkpoint resumes only at the 2 rank(s)"
expect 0 "restart --trace-engine at 2 ranks" \
    "$SSTSIM" --restart "$WORK/tcp" --ranks 2 --trace-engine --stats /dev/null
expect 0 "restart at 4 of 2 ranks" \
    "$SSTSIM" --restart "$WORK/tcp" --ranks 4 --stats /dev/null
mkdir -p "$WORK/v2"  # alone, so no intact sibling is a fallback
v2="$WORK/v2/sim.ckpt.000001"
cp "$WORK/tcp/$(ls "$WORK/tcp" | tail -1)" "$v2"
printf '\002\000\000\000' | dd of="$v2" bs=1 seek=8 conv=notrunc 2>/dev/null
expect 5 "restart version-2 snapshot" "$SSTSIM" --restart "$v2" --stats /dev/null
names "restart version-2 snapshot" "has format version 2 but this build supports version 3"

# Sweep specs: range steps, sample counts and seeds are whole numbers in
# range, and no spec expands past the point bound; each bad value is a
# config error (2) naming its key, never an abort.
# sweep_points <name> <axes> [<sample>]: a pingpong sweep spec, listed.
sweep_points() {
  printf '%s\n' "{\"name\": \"$1\", \"model\": \"$MODELS/pingpong.json\"," \
    " \"axes\": $2, \"sample\": ${3:-{\"mode\": \"cross\"\}}}" \
    > "$WORK/$1.json"
  expect 2 "sweep $1" "$SSTDSE" points "$WORK/$1.json"
}
# range_axis <param> <steps>: a range axis over rank<param>'s msg_bytes.
range_axis() {
  printf '%s' "{\"path\": \"/components/rank$1/params/msg_bytes\"," \
    " \"range\": {\"from\": 64, \"to\": 4096, \"steps\": $2}}"
}
for steps in -1 1e12 2.5; do
  sweep_points "steps_$steps" "[$(range_axis 0 "$steps")]"
  names "sweep steps_$steps" "range.steps"
done
sweep_points steps_product "[$(range_axis 0 100000), $(range_axis 1 100000)]"
names "sweep steps_product" "axes: the cross product"
# Three axes at the step bound: the second one already fails.
SEED_AXIS='{"path": "/config/seed", "range": {"from": 1, "to": 1000000, "steps": 1000000}}'
sweep_points steps_three_max \
  "[$(range_axis 0 1000000), $(range_axis 1 1000000), $SEED_AXIS]"
names "sweep steps_three_max" "axes: the cross product"
VALUES_AXIS='[{"path": "/components/rank0/params/msg_bytes", "values": [64, 128, 256]}]'
for count in -1 2.5 1e30; do
  sweep_points "count_$count" "$VALUES_AXIS" \
    "{\"mode\": \"random\", \"count\": $count}"
  names "sweep count_$count" "sample.count"
done
for seed in -1 1e30; do
  sweep_points "seed_$seed" "$VALUES_AXIS" \
    "{\"mode\": \"random\", \"count\": 2, \"seed\": $seed}"
  names "sweep seed_$seed" "sample.seed"
done

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "exit_codes: all codes as documented"
