#!/bin/sh
# Runs every paper bench and example that reads thread-state intervals or
# preemption records (Tables 4/5, Figs 13/14, examples/kernel_trace) on
# short sessions. Each builds its world at TraceLevel::Full; one left at
# the default Counters level throws from its first interval reader and
# exits non-zero, which fails this smoke.
#
#   bench/trace_bench_smoke.sh BINARY...
set -u
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mvqoe_trace_smoke.XXXXXX")" || exit 1
trap 'rm -rf "$WORK"' EXIT

for bin in "$@"; do
  name=$(basename "$bin")
  MVQOE_RUNS=1 MVQOE_DURATION_S=8 MVQOE_JSON_DIR="$WORK" "$bin" > "$WORK/$name.log" 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    cat "$WORK/$name.log"
    echo "FAIL: $name exited $status"
    exit 1
  fi
  echo "ok: $name"
done
