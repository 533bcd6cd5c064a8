#!/bin/sh
# Byte-identity check between two build trees of this repository.
#
#   tools/identity_check.sh PARENT_BUILD CHANGE_BUILD
#
# Runs every paper bench (bench_fig*, bench_table*, bench_ablation*) and
# every example binary of both build trees with MVQOE_JOBS=4, each tree
# writing its BENCH_*.json into its own MVQOE_JSON_DIR, then compares
# stdout, exit status and every BENCH_*.json byte for byte. The only text
# masked is the wall-clock figures of fig16's warm-start line
# ("cold Xs, warm Ys (Z% wall-clock saved)"). Use it to prove that a
# change claiming no behaviour change leaves every paper output as it was;
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

# Binaries named relative to the build root, taken from the parent tree;
# one missing from the change tree counts as a difference below.
binaries=""
for path in "$parent"/bench/bench_fig* "$parent"/bench/bench_table* \
            "$parent"/bench/bench_ablation* "$parent"/examples/*; do
  if [ -f "$path" ] && [ -x "$path" ]; then
    binaries="$binaries ${path#"$parent"/}"
  fi
done
if [ -z "$binaries" ]; then
  echo "identity_check: no bench or example binaries under $parent" >&2
  exit 2
fi

run_tree() {  # run_tree BUILD OUT
  mkdir -p "$2/json"
  for rel in $binaries; do
    name=$(basename "$rel")
    if [ ! -x "$1/$rel" ]; then
      echo "missing" > "$2/$name.status"
      continue
    fi
    # Relative MVQOE_JSON_DIR: the "machine-readable: ..." lines print the
    # same path for both trees.
    (cd "$2" && MVQOE_JOBS=4 MVQOE_JSON_DIR=json "$1/$rel" > "$name.stdout" 2> "$name.stderr")
    echo $? > "$2/$name.status"
    if [ "$name" = bench_fig16_framerate_sweep ]; then
      sed 's/cold [0-9.]*s, warm [0-9.]*s (-*[0-9.]*% wall-clock saved)/cold Xs, warm Ys (Z% wall-clock saved)/' \
        "$2/$name.stdout" > "$2/$name.masked" && mv "$2/$name.masked" "$2/$name.stdout"
    fi
  done
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
for rel in $binaries; do
  name=$(basename "$rel")
  count=$((count + 1))
  for kind in status stdout; do
    if ! cmp -s "$work/parent/$name.$kind" "$work/change/$name.$kind"; then
      report "$kind of $rel" "$work/parent/$name.$kind" "$work/change/$name.$kind"
    fi
  done
  # A binary failing the same way in both trees is still a failure.
  if [ "$(cat "$work/change/$name.status")" != 0 ]; then
    differences=$((differences + 1))
    echo "FAIL $rel exited $(cat "$work/change/$name.status")"
    tail -n 5 "$work/change/$name.stderr" 2>/dev/null
  fi
done

jsons=0
for file in "$work"/parent/json/BENCH_*.json "$work"/change/json/BENCH_*.json; do
  [ -f "$file" ] || continue
  base=$(basename "$file")
  case "$file" in "$work"/change/*) [ -f "$work/parent/json/$base" ] && continue ;; esac
  jsons=$((jsons + 1))
  if [ ! -f "$work/parent/json/$base" ] || [ ! -f "$work/change/json/$base" ] ||
     ! cmp -s "$work/parent/json/$base" "$work/change/json/$base"; then
    report "$base" "$work/parent/json/$base" "$work/change/json/$base"
  fi
done

echo "identity_check: $count binaries, $jsons BENCH json files, $differences difference(s)"
[ "$differences" -eq 0 ]
