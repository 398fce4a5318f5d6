#!/usr/bin/env bash
# Determinism gate: the same seed must produce byte-identical output at
# every worker-thread count.  With the sharded parallel tick engine
# (DESIGN.md "Parallel tick engine") this is the repo's core contract:
# trials are deterministic functions of (base_seed, trial_index), tick
# outcomes of (seed, tick, shard) — DHTLB_THREADS must be inert.
#
# Three artifact families are checked across the thread matrix
# (default 1 2 8 — single-threaded reference, first parallel split,
# oversubscribed):
#   * examples/strategy_comparison text output (plus a repeat run at
#     the reference count, catching nondeterminism unrelated to threads)
#   * one reduced-trial bench binary's BENCH_*.json telemetry
#     (DHTLB_BENCH_DETERMINISTIC=1 zeroes wall_ms)
#   * a canned scenario's trace + metrics observability artifacts, plus
#     the sinks-attached run's telemetry vs the committed golden
#     (observation must not perturb the simulation)
# Scenario and serve telemetry without sinks are byte-compared against
# their goldens by the ctest scenario.golden.* / serve.golden.* entries,
# and the fuzz runner's determinism by fuzz_test and fuzz.smoke.mixed.
#
# Usage: scripts/check_determinism.sh [build_dir] [nodes] [tasks] [trials]
# build_dir defaults to $DHTLB_BUILD_DIR when set (so wrappers with an
# existing configured tree need no positional argument), else "build".
# DHTLB_THREAD_MATRIX overrides the thread counts (space-separated;
# the first entry is the reference all others are compared against).
# Exit 0 on success, 1 on a determinism break, 2 when the binary is missing.
set -euo pipefail

BUILD_DIR="${1:-${DHTLB_BUILD_DIR:-build}}"
NODES="${2:-100}"
TASKS="${3:-10000}"
TRIALS="${4:-3}"
THREAD_MATRIX=(${DHTLB_THREAD_MATRIX:-1 2 8})
REF="${THREAD_MATRIX[0]}"
BIN="$BUILD_DIR/examples/strategy_comparison"

if [[ ! -x "$BIN" ]]; then
  echo "check_determinism: $BIN not found — build the tree first" >&2
  echo "  cmake --preset audit && cmake --build --preset audit -j" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

export DHTLB_SEED=3735928559

fail=0

# compare <reference> <candidate> <message>
compare() {
  if ! cmp -s "$1" "$2"; then
    echo "check_determinism: FAIL — $3" >&2
    diff -u "$1" "$2" >&2 || true
    fail=1
  fi
}

echo "check_determinism: thread matrix: ${THREAD_MATRIX[*]} (ref t$REF)"

# Example output: repeat run at the reference count, then the matrix.
echo "check_determinism: strategy_comparison (t$REF, run A)"
DHTLB_THREADS="$REF" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_ref.txt"
echo "check_determinism: strategy_comparison (t$REF, run B)"
DHTLB_THREADS="$REF" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_rep.txt"
compare "$workdir/ex_ref.txt" "$workdir/ex_rep.txt" \
  "repeated run differs with the same seed"
for t in "${THREAD_MATRIX[@]:1}"; do
  echo "check_determinism: strategy_comparison (t$t)"
  DHTLB_THREADS="$t" "$BIN" "$NODES" "$TASKS" "$TRIALS" > "$workdir/ex_t$t.txt"
  compare "$workdir/ex_ref.txt" "$workdir/ex_t$t.txt" \
    "strategy_comparison output depends on the thread count (t$REF vs t$t)"
done

# Bench telemetry: the batched trial fan must emit the same JSON
# records regardless of the worker-thread count.
BENCH_BIN="$BUILD_DIR/bench/table2_churn"
if [[ -x "$BENCH_BIN" ]]; then
  for t in "${THREAD_MATRIX[@]}"; do
    mkdir -p "$workdir/bench$t"
    echo "check_determinism: bench telemetry (t$t)"
    DHTLB_THREADS="$t" DHTLB_TRIALS=1 DHTLB_BENCH_DETERMINISTIC=1 \
      DHTLB_BENCH_DIR="$workdir/bench$t" "$BENCH_BIN" > /dev/null
  done
  for t in "${THREAD_MATRIX[@]:1}"; do
    compare "$workdir/bench$REF/BENCH_table2_churn.json" \
            "$workdir/bench$t/BENCH_table2_churn.json" \
      "bench JSON depends on thread count (t$REF vs t$t)"
  done
else
  echo "check_determinism: note — $BENCH_BIN not built, skipping bench JSON check"
fi

# Observability determinism on the churn-heavy parallel soak, which
# drives the sharded tick path (parallel departure draws, cross-arc
# fold, sharded consumption) hard enough that any ordering bug surfaces:
# trace + metrics files must byte-compare across the matrix, and
# attaching the sinks must leave the telemetry JSON equal to the
# committed golden (observation invariance).
SCN_BIN="$BUILD_DIR/examples/dhtlb_scenario"
SCN_FILE="$(dirname "$0")/../scenarios/parallel_churn_soak.scn"
SCN_JSON="BENCH_scenario_parallel_churn_soak.json"
SCN_GOLDEN="$(dirname "$0")/../scenarios/goldens/$SCN_JSON"
if [[ -x "$SCN_BIN" && -f "$SCN_FILE" ]]; then
  for t in "${THREAD_MATRIX[@]}"; do
    mkdir -p "$workdir/obs$t"
    echo "check_determinism: trace/metrics (t$t)"
    DHTLB_THREADS="$t" DHTLB_BENCH_DIR="$workdir/obs$t" \
      "$SCN_BIN" "$SCN_FILE" \
      --trace="$workdir/obs$t/trace.json" \
      --metrics="$workdir/obs$t/metrics.jsonl" --quiet > /dev/null
  done
  for t in "${THREAD_MATRIX[@]:1}"; do
    for artifact in trace.json metrics.jsonl; do
      compare "$workdir/obs$REF/$artifact" "$workdir/obs$t/$artifact" \
        "$artifact depends on thread count (t$REF vs t$t)"
    done
  done
  compare "$SCN_GOLDEN" "$workdir/obs$REF/$SCN_JSON" \
    "attaching sinks changed the telemetry (vs the committed golden)"
else
  echo "check_determinism: note — $SCN_BIN not built, skipping trace/metrics check"
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "check_determinism: OK — byte-identical across ${THREAD_MATRIX[*]} threads"
