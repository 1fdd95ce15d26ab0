#!/bin/bash
# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
# DAR_PROFILE controls scale: quick | standard | full.
set -u
if [ "${DAR_SKIP_CI:-0}" != "1" ]; then
  echo "=== preflight: ci.sh (set DAR_SKIP_CI=1 to skip) ==="
  ./ci.sh || { echo "preflight failed; not running experiments" >&2; exit 1; }
fi
PROFILE="${DAR_PROFILE:-quick}"
export DAR_PROFILE="$PROFILE"
OUT="results"
mkdir -p "$OUT"
# Every bench binary is one table or figure, except parspeed, the
# thread-scaling bench (DESIGN.md §9), which writes its own report.
for src in crates/bench/src/bin/*.rs; do
  exp=$(basename "$src" .rs)
  [ "$exp" = parspeed ] && continue
  echo "=== running $exp (profile $PROFILE) ==="
  ./target/release/$exp > "$OUT/$exp.txt" 2>&1
  echo "    done: $OUT/$exp.txt"
done
