#!/bin/sh
# Mode-equivalence smoke for the campaign tools (DESIGN.md §13): the same
# run executed serially, under --procs 4, and SIGKILLed after N progress
# checkpoints (--kill-after-checkpoints) then resumed from its --state
# file must print the same digest and write byte-identical files. Each
# tool also gets a command-line check: a malformed flag exits 2 naming it,
# and so do a coordinator-only flag on an in-process fuzz or fleet run, an
# in-process-only flag (--jobs, fuzz's --minutes) beside what starts the
# coordinator, and --state beside --resume.
#
#   tests/mode_smoke.sh fuzz   MVQOE_FUZZ       # 48 fuzz runs, 6 shards of 8
#   tests/mode_smoke.sh fleet  MVQOE_FLEET      # + the `report` round trip
#   tests/mode_smoke.sh policy MVQOE_POLICY     # the four policy lanes
#   tests/mode_smoke.sh cc     MVQOE_CAMPAIGN   # one 6-group sweep per controller
#   tests/mode_smoke.sh replay MVQOE_REPLAY     # command-line check only
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 fuzz|fleet|policy|cc|replay TOOL" >&2
  exit 2
fi
CASE=$1
TOOL=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")  # runs cd into work dirs
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mvqoe_mode_smoke.XXXXXX")" || exit 1
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*"
  exit 1
}

# run NAME STATUS ARGS...: TOOL ARGS inside $WORK/NAME (also its
# MVQOE_JSON_DIR), logged to $WORK/NAME.log, must exit STATUS.
run() {
  name=$1
  want=$2
  shift 2
  mkdir -p "$WORK/$name"
  (cd "$WORK/$name" && MVQOE_JSON_DIR=. exec "$TOOL" "$@") > "$WORK/$name.log" 2>&1
  status=$?
  [ "$status" -eq "$want" ] || { cat "$WORK/$name.log"; fail "$name exited $status, not $want"; }
}

digest_of() {
  sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p' "$WORK/$1.log" | tail -1
}

# check_cli FLAG ARGS...: TOOL ARGS must exit 2 and name FLAG on stderr.
check_cli() {
  flag=$1
  shift
  "$TOOL" "$@" > /dev/null 2> "$WORK/cli.err"
  status=$?
  [ "$status" -eq 2 ] || fail "'$*' exited $status, not 2"
  grep -q -e "$flag" "$WORK/cli.err" || fail "'$*' did not name $flag on stderr"
  echo "ok: '$*' exits 2: $(head -n 1 "$WORK/cli.err")"
}

# check_modes LABEL KILLS RUN RESUME OUTPUT FILES NORMALIZE
#   serial:  TOOL RUN OUTPUT                  (must write FILES)
#   procs:   TOOL RUN --procs 4 OUTPUT
#   killed:  TOOL RUN --procs 4 --state STATE --kill-after-checkpoints KILLS
#            (the coordinator must die by SIGKILL: exit 137)
#   resumed: TOOL RESUME STATE --procs 4 OUTPUT
# procs and resumed must print the serial digest and write the serial
# run's files byte for byte. NORMALIZE=yes zeroes the "jobs" field (the
# procs a sweep used) of every BENCH json first. The coordinator flushes
# when a shard finishes, and a fifth shard starts only after one has:
# each case has more units than its first KILLS flushes can hold, so the
# resume must take some units from the checkpoint ("resumed: D/T ...")
# but never all of them.
check_modes() {
  label=$1 kills=$2 cmd=$3 resume=$4 output=$5 files=$6 normalize=$7
  echo "== $label: serial, --procs 4, SIGKILL after $kills checkpoint(s) + resume =="
  # shellcheck disable=SC2086
  {
    run "$label/serial" 0 $cmd $output
    run "$label/procs" 0 $cmd --procs 4 $output
    run "$label/killed" 137 $cmd --procs 4 --state ../state.mvqs --kill-after-checkpoints "$kills"
    run "$label/resumed" 0 $resume ../state.mvqs --procs 4 $output
  }
  serial=$(digest_of "$label/serial")
  [ -n "$serial" ] || fail "$label: the serial run printed no digest"
  for file in $files; do
    [ -f "$WORK/$label/serial/$file" ] || fail "$label: the serial run wrote no $file"
  done
  resumed=$(sed -n 's|^resumed: \([0-9]*/[0-9]*\) .*|\1|p' "$WORK/$label/resumed.log")
  taken=${resumed%/*}
  [ -n "$resumed" ] && [ "$taken" -gt 0 ] && [ "$taken" -lt "${resumed#*/}" ] ||
    fail "$label: the resume took ${resumed:-no} units from the checkpoint, not some but not all"
  echo "ok: $label resumed $resumed units from the checkpoint"
  if [ "$normalize" = yes ]; then
    for json in "$WORK/$label"/*/BENCH_*.json; do
      sed 's/"jobs": *[0-9]*/"jobs": 0/' "$json" > "$json.tmp" && mv "$json.tmp" "$json"
    done
  fi
  for mode in procs resumed; do
    digest=$(digest_of "$label/$mode")
    [ "$digest" = "$serial" ] || fail "$label: $mode digest $digest, serial $serial"
    diff -rq "$WORK/$label/serial" "$WORK/$label/$mode" || fail "$label: $mode files differ"
  done
  echo "ok: $label digest $serial in every mode, files byte-identical"
}

case "$CASE" in
  fuzz)
    check_cli --runs --runs 2x
    check_cli --jobs --procs 1 --jobs 8
    check_cli --minutes --minutes 1 --procs 1
    for flag in --retries --heartbeat-ms --shard-size --backoff-ms --abort-unit --abort-attempts \
      --kill-after-checkpoints; do
      check_cli "$flag" --runs 1 "$flag" 3
    done
    # 6 shards of 8 on 4 workers, killed at the second finished shard: at
    # most 5 shards have started, so at most 40 of the 48 runs landed.
    check_modes fuzz 2 "--seed 5 --runs 48" "--resume" "--no-meta --out ." "" no
    ;;
  fleet)
    check_cli --devices run --devices 1e6
    check_cli --jobs run --devices 256 --procs 1 --jobs 4
    check_cli --jobs resume "$WORK/fleet.mvqs" --jobs 2
    for flag in --retries --heartbeat-ms --abort-unit --abort-attempts --kill-after-checkpoints; do
      check_cli "$flag" run --devices 8 "$flag" 1
    done
    # 12 units in 6 shards of 2, killed at the first finished shard: at
    # most 4 shards (8 units) have started.
    check_modes fleet 1 \
      "run --devices 1500 --seed 5 --session-s 3 --sample-period 2 --warmup-s 1 --shard-size 128" \
      "resume" "--report report.json --save fleet.mvqs" "report.json fleet.mvqs" no
    run fleet/reprint 0 report ../serial/fleet.mvqs --out report.json
    cmp -s "$WORK/fleet/serial/report.json" "$WORK/fleet/reprint/report.json" ||
      fail "fleet: the report re-rendered from the saved blob differs from the run's own"
    ;;
  policy)
    check_cli --runs compare --runs 1.5
    # 8 one-unit shards (2 groups x 4 lanes), killed at the first finished
    # shard: at most 4 have started.
    check_modes policy 1 "compare --duration 8 --runs 2 --seed 5 --states low --fps 30 --heights 480" \
      "compare --resume" "--out lab" \
      "BENCH_lab_baseline.json BENCH_lab_swam.json BENCH_lab_ariadne.json BENCH_lab_partitioned.json" no
    ;;
  cc)
    check_cli --heights sweep --heights 36O
    check_cli --resume sweep --state "$WORK/a.mvqs" --resume "$WORK/b.mvqs"
    # 6 one-unit shards (6 groups), killed at the first finished shard: at
    # most 4 have started.
    for cc in fifo cubic bbr c4; do
      check_modes "cc-$cc" 1 \
        "sweep --duration 6 --runs 6 --seed 5 --states low --fps 30 --heights 360 --cc $cc" \
        "sweep --resume" "--out cc" "BENCH_cc.json" yes
    done
    ;;
  replay)
    check_cli --hieght record "$WORK/r.mvqs" --hieght=720
    check_cli --videos record "$WORK/r.mvqs" --videos=2x
    ;;
  *) fail "unknown case '$CASE'" ;;
esac
echo "OK: $CASE"
