#!/usr/bin/env bash
# One-command correctness gate:
#   1. build with -Werror + run the plain test suite (build/)
#   2. metrics_report end-to-end smoke (JSON snapshot round-trip and
#      consistency, journal file round-trip with run-start/run-finish
#      events)
#   3. clang-tidy static analysis (skipped with a warning when the tool
#      is not installed — see scripts/run_tidy.sh)
#   4. fuseme_lint repo-invariant scan (scripts/run_lint.sh — never
#      skipped; the linter builds with the repo's own toolchain)
#   5. the whole suite under UndefinedBehaviorSanitizer (build-ubsan/)
#   6. the whole suite under AddressSanitizer (build-asan/)
# With FUSEME_CHECK_BENCH=1, also smoke-runs the measurement harnesses at
# tiny shapes and checks their BENCH_*.json sinks (scripts/run_bench_smoke.sh).
# Usage: scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== plain suite, -Werror (build/) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFUSEME_WERROR=ON
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure)
if grep -q '^FUSEME_THREAD_SAFETY_ANALYSIS:INTERNAL=OFF$' build/CMakeCache.txt; then
  echo "check.sh: Clang thread-safety analysis skipped (compiler is not Clang)" >&2
fi

echo "== metrics_report smoke (GNMF, --check) =="
SMOKE_DIR=$(mktemp -d)
METRICS_REPORT="$PWD/build/examples/metrics_report"
(cd "$SMOKE_DIR" && "$METRICS_REPORT" gnmf --check \
  > metrics_report_log.txt 2>&1) || {
  cat "$SMOKE_DIR/metrics_report_log.txt" >&2
  rm -rf "$SMOKE_DIR"
  echo "FAIL: metrics_report smoke" >&2
  exit 1
}
rm -rf "$SMOKE_DIR"
echo "ok: metrics_report JSON snapshot and journal file validated"

if [[ "${FUSEME_CHECK_BENCH:-0}" == "1" ]]; then
  echo "== bench smoke (BENCH_*.json + metrics snapshot) =="
  scripts/run_bench_smoke.sh
fi

echo "== clang-tidy =="
scripts/run_tidy.sh

echo "== fuseme_lint (repo invariants) =="
scripts/run_lint.sh

echo "== UndefinedBehaviorSanitizer suite (build-ubsan/) =="
scripts/run_ubsan.sh

echo "== AddressSanitizer suite (build-asan/) =="
scripts/run_asan.sh

echo "== all checks passed =="
