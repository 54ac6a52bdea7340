#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-sensitive
# test directories (common/, matrix/, ops/, runtime/, engine/, telemetry/)
# under it — including the event-journal hammers.
# Usage: scripts/run_tsan.sh [extra ctest -R regex]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFUSEME_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The tests that exercise the thread pool, the parallel kernels, and the
# parallel operators (including the serial-vs-parallel determinism suite
# and the OOM degradation ladder's thread sweep, whose rungs re-run a
# stage's work items on the pool after a mid-stage overrun, and the
# transposed-operand engine runs at 1 and 4 threads).
REGEX=${1:-'Synchronization|ThreadPool|GlobalThreadPool|ParallelDeterminism|MatMul|BlockedMatrix|Stage|FusedOperator|OperatorSweep|Metrics|Logging|FaultTolerance|OomLadder|OptionsValidation|SparseKernels|ConcurrentEngines|EventJournal|SolverRegistry|CompiledPlan|TransposedOperands'}

# Exercise more than one thread even on small CI machines.
export FUSEME_THREADS=${FUSEME_THREADS:-4}
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

cd "$BUILD_DIR"
ctest --output-on-failure -R "$REGEX"
