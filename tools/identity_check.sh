#!/bin/sh
# Byte-identity check between two build trees of this repository.
#
#   tools/identity_check.sh PARENT_BUILD CHANGE_BUILD
#
# Runs every paper bench (bench_fig*, bench_table*, bench_ablation*),
# every example binary and each tool on a small fixed input (`tool_runs`)
# of both build trees with MVQOE_JOBS=4, each tree writing into its own
# directory, then compares stdout, exit status, every BENCH_*.json and
# every written file byte for byte. Only host time is masked: fig16's
# "cold Xs, warm Ys (Z% wall-clock saved)" and the fleet line's wall,
# devices/s and peak-RSS figures. Use it to prove that a change claiming
# no behaviour change leaves every paper and tool output as it was;
# build both trees the same way (e.g. -DCMAKE_BUILD_TYPE=Release).
#
# Exit status: 0 identical, 1 any difference or failing binary (listed on
# stdout), 2 usage.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/identity_check.XXXXXX") || exit 2
trap 'rm -rf "$work"' EXIT
trap 'exit 2' INT TERM

# NAME PATH ARGS per run, PATH relative to the build root: every bench
# and example binary of the parent tree (one missing from the change tree
# counts as a difference below), then each tool on a small fixed input
# writing its files to files/ and its BENCH json to json/.
runs=""
for path in "$parent"/bench/bench_fig* "$parent"/bench/bench_table* \
            "$parent"/bench/bench_ablation* "$parent"/examples/*; do
  if [ -f "$path" ] && [ -x "$path" ]; then
    runs="$runs
$(basename "$path") ${path#"$parent"/}"
  fi
done
if [ -z "$runs" ]; then
  echo "identity_check: no bench or example binaries under $parent" >&2
  exit 2
fi
runs="$runs
tool_fuzz tools/mvqoe_fuzz --seed 1 --runs 6 --out files
tool_sweep tools/mvqoe_campaign sweep --duration 6 --states low --fps 30 --heights 360,480 --out sweep
tool_compare tools/mvqoe_policy compare --duration 6 --seed 5 --out lab
tool_fleet tools/mvqoe_fleet run --devices 256 --session-s 3 --sample-period 2 --report files/fleet.json
tool_record tools/mvqoe_replay record files/replay.mvqs --duration=6 --interval=2
tool_info tools/mvqoe_replay info files/replay.mvqs"

mask() {  # mask FILE SED_SCRIPT
  sed "$2" "$1" > "$1.masked" && mv "$1.masked" "$1"
}

run_tree() {  # run_tree BUILD OUT
  mkdir -p "$2/json" "$2/files"
  echo "$runs" | while read -r name rel args; do
    [ -n "$name" ] || continue
    if [ ! -x "$1/$rel" ]; then
      echo "missing" > "$2/$name.status"
      continue
    fi
    # Relative MVQOE_JSON_DIR: the "machine-readable: ..." lines print the
    # same path for both trees.
    # shellcheck disable=SC2086
    (cd "$2" && MVQOE_JOBS=4 MVQOE_JSON_DIR=json "$1/$rel" $args > "$name.stdout" 2> "$name.stderr")
    echo $? > "$2/$name.status"
  done
  mask "$2/bench_fig16_framerate_sweep.stdout" \
    's/cold [0-9.]*s, warm [0-9.]*s (-*[0-9.]*% wall-clock saved)/cold Xs, warm Ys (Z% wall-clock saved)/'
  mask "$2/tool_fleet.stdout" \
    's/ [0-9.]*s wall, [0-9]* devices\/sec, peak RSS [0-9.]* MB,/ Xs wall, Y devices\/sec, peak RSS Z MB,/'
}

echo "identity_check: running parent tree $parent"
run_tree "$parent" "$work/parent"
echo "identity_check: running change tree $change"
run_tree "$change" "$work/change"

differences=0
report() {  # report WHAT PARENT_FILE CHANGE_FILE
  differences=$((differences + 1))
  echo "DIFF $1"
  diff -u "$2" "$3" | head -n 20
}

count=0
for name in $(echo "$runs" | cut -d' ' -f1); do
  count=$((count + 1))
  for kind in status stdout; do
    if ! cmp -s "$work/parent/$name.$kind" "$work/change/$name.$kind"; then
      report "$kind of $name" "$work/parent/$name.$kind" "$work/change/$name.$kind"
    fi
  done
  # A binary failing the same way in both trees is still a failure.
  if [ "$(cat "$work/change/$name.status")" != 0 ]; then
    differences=$((differences + 1))
    echo "FAIL $name exited $(cat "$work/change/$name.status")"
    tail -n 5 "$work/change/$name.stderr" 2>/dev/null
  fi
done

files=0
for file in "$work"/parent/json/BENCH_*.json "$work"/parent/files/* \
            "$work"/change/json/BENCH_*.json "$work"/change/files/*; do
  [ -f "$file" ] || continue
  case "$file" in
    "$work"/parent/*) rel=${file#"$work"/parent/} ;;
    *) rel=${file#"$work"/change/}; [ -f "$work/parent/$rel" ] && continue ;;
  esac
  files=$((files + 1))
  if [ ! -f "$work/parent/$rel" ] || [ ! -f "$work/change/$rel" ] ||
     ! cmp -s "$work/parent/$rel" "$work/change/$rel"; then
    report "$rel" "$work/parent/$rel" "$work/change/$rel"
  fi
done

echo "identity_check: $count runs, $files written files, $differences difference(s)"
[ "$differences" -eq 0 ]
