#!/usr/bin/env bash
# Smoke-runs the measurement harnesses at tiny configurations and
# asserts that their BENCH_*.json result sinks are written and embed a
# metrics snapshot (see DESIGN.md section 12).  Used by scripts/check.sh
# when FUSEME_CHECK_BENCH=1; safe to run standalone.
# Usage: scripts/run_bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

if [[ ! -x "$BUILD_DIR/bench/bench_microkernels" ||
      ! -x "$BUILD_DIR/bench/bench_fig12_operators" ||
      ! -x "$BUILD_DIR/bench/bench_sparse" ||
      ! -x "$BUILD_DIR/bench/bench_compile" ]]; then
  echo "error: bench binaries missing under $BUILD_DIR/bench -- build first" >&2
  exit 1
fi

# Small shapes so the smoke run takes seconds, not minutes.
export FUSEME_BENCH_GEMM_N=${FUSEME_BENCH_GEMM_N:-256}
export FUSEME_BENCH_CFO_N=${FUSEME_BENCH_CFO_N:-512}
export FUSEME_BENCH_SPARSE_N=${FUSEME_BENCH_SPARSE_N:-512}
export FUSEME_BENCH_COMPILE_N=${FUSEME_BENCH_COMPILE_N:-256}

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

run_and_check() {
  local binary=$1 json=$2
  shift 2
  (cd "$SCRATCH" && "$binary" "$@" > "$SCRATCH/log.txt" 2>&1) || {
    echo "FAIL: $binary exited non-zero" >&2
    cat "$SCRATCH/log.txt" >&2
    exit 1
  }
  if [[ ! -s "$SCRATCH/$json" ]]; then
    echo "FAIL: $binary did not write $json" >&2
    exit 1
  fi
  for key in '"benchmark"' '"results"' '"metrics_snapshot"'; do
    if ! grep -q "$key" "$SCRATCH/$json"; then
      echo "FAIL: $json is missing $key" >&2
      exit 1
    fi
  done
  echo "ok: $json ($(wc -c < "$SCRATCH/$json") bytes, metrics embedded)"
}

# --benchmark_filter matching nothing skips the google-benchmark cases;
# the serial-vs-parallel GEMM suite (which feeds the registry) and the
# per-variant GEMM, SpMM and non-zero-count suites and the transpose and
# element-wise suite still run.  The latter exit non-zero if any supported
# kernel variant's output differs from the portable loop's, or a kernel's
# from its scalar oracle.
run_and_check "$PWD/$BUILD_DIR/bench/bench_microkernels" \
  BENCH_microkernels.json --benchmark_filter='^$'
for kernel in dense_gemm spmm_sparse_dense spmm_dense_sparse count_nonzeros; do
  if ! grep -q "\"name\": \"$kernel\", \"config\": {\"isa\": \"portable\"" \
      "$SCRATCH/BENCH_microkernels.json"; then
    echo "FAIL: BENCH_microkernels.json has no per-variant $kernel rows" >&2
    exit 1
  fi
done
# The blocked transpose and the element-wise kernels, each row checked
# bitwise against its scalar oracle by the bench itself.
for row in '"name": "transpose", "config": {"op": "dense", "shape": "256x256"' \
           '"name": "transpose", "config": {"op": "dense", "shape": "128x512"' \
           '"name": "ewise", "config": {"op": "add"' \
           '"name": "ewise", "config": {"op": "div"' \
           '"name": "ewise", "config": {"op": "sigmoid"' \
           '"name": "ewise", "config": {"op": "scalar_mul"'; do
  if ! grep -qF "$row" "$SCRATCH/BENCH_microkernels.json"; then
    echo "FAIL: BENCH_microkernels.json has no row $row" >&2
    exit 1
  fi
done
run_and_check "$PWD/$BUILD_DIR/bench/bench_fig12_operators" \
  BENCH_fig12_operators.json
# Sparsity-aware kernels vs dense-style execution; exits non-zero if fewer
# than two cells show a speedup or the sparse-stage prediction drifts past 2x.
run_and_check "$PWD/$BUILD_DIR/bench/bench_sparse" BENCH_sparse.json
# Compile-once/execute-many facade; exits non-zero if a replayed Execute
# re-plans (solver/planner counters move) or diverges from the first one.
run_and_check "$PWD/$BUILD_DIR/bench/bench_compile" BENCH_compile.json

echo "bench smoke passed"
