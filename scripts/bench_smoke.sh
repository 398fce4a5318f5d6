#!/usr/bin/env bash
# Bench smoke gate: runs a reduced-trial subset of the bench binaries,
# collects their BENCH_*.json telemetry, and diffs it against the
# committed baselines in bench/baselines/ via compare_bench.py: every
# deterministic value must match bit-for-bit at the same seed/trials,
# and peak RSS may not grow past the comparator's bound.  Wall time is
# not gated; perfbench/ measures speed.
#
# Telemetry and text output go to $DHTLB_BENCH_DIR when it is set (so
# the files outlive the run), otherwise to a temporary directory.
#
# Usage: scripts/bench_smoke.sh [build_dir]
#        scripts/bench_smoke.sh --update-baseline [build_dir]
# Exit 0 on success, 1 on regression, 2 when binaries are missing.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
UPDATE=0
BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE=1 ;;
    -*) echo "bench_smoke: unknown option $arg" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# The smoke subset: fast representatives of each binary family.  The
# full set runs locally via `for b in build/bench/*; do ...` when
# needed; CI wants minutes, not hours.
SMOKE_BINARIES=(
  table2_churn
  tableF_future_work
  fig4_6_churn_histograms
  task_stream
  fuzz_throughput
  serve_throughput
)
# Reduced trial counts keep the smoke run quick while still exercising
# the batched trial fan.
export DHTLB_TRIALS=2
export DHTLB_SEED=1337

for bin in "${SMOKE_BINARIES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "bench_smoke: $BUILD_DIR/bench/$bin not found — build first" >&2
    exit 2
  fi
done

if [[ -n "${DHTLB_BENCH_DIR:-}" ]]; then
  OUT_DIR="$DHTLB_BENCH_DIR"
  mkdir -p "$OUT_DIR"
else
  OUT_DIR="$(mktemp -d)"
  trap 'rm -rf "$OUT_DIR"' EXIT
  export DHTLB_BENCH_DIR="$OUT_DIR"
fi

for bin in "${SMOKE_BINARIES[@]}"; do
  echo "bench_smoke: running $bin (trials=$DHTLB_TRIALS)"
  "$BUILD_DIR/bench/$bin" > "$OUT_DIR/$bin.txt"
done

if [[ "$UPDATE" == 1 ]]; then
  mkdir -p "$REPO_ROOT/bench/baselines"
  cp "$OUT_DIR"/BENCH_*.json "$REPO_ROOT/bench/baselines/"
  echo "bench_smoke: baselines updated in bench/baselines/:"
  ls "$REPO_ROOT/bench/baselines/"
  exit 0
fi

python3 "$REPO_ROOT/scripts/compare_bench.py" \
  --baseline-dir "$REPO_ROOT/bench/baselines" \
  --current-dir "$OUT_DIR"
