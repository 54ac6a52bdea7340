// Probes that time one layer's public functions from outside the engine:
// the matrix/ kernels on blocks cut from a workload's own inputs, and the
// compile-side passes (planner, (P,Q,R) search, verifier) on its DAGs.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/tracer.h"
#include "workloads.h"

namespace perfbench {

/// One kernel measured single-threaded on real blocks.
struct KernelProbe {
  std::string name;    // "gemm", "spmm", "sddmm", "ewise"
  std::string shape;   // operand shapes, for the run log
  std::int64_t ops = 0;             // flops (cells for ewise) per call
  std::int64_t computed_bytes = 0;  // operand + result bytes per call,
                                    // computed from sizes (no cache model)
  double seconds = 0;  // median seconds per call
  /// ops / seconds / 1e9: GFLOP/s, or Gcell/s for ewise.
  double rate() const { return seconds > 0 ? ops / seconds / 1e9 : 0.0; }
};

/// Runs MatMulAcc, SpmmAccSparseDense, SddmmAcc and EwiseBinary+Unary on
/// blocks of the workload's first query, each for about budget/4 seconds.
/// The caller pins the global pool to one thread.  Empty for a workload
/// without numeric inputs (analytic mode).
std::vector<KernelProbe> RunKernelProbes(const Workload& w, double budget,
                                         fuseme::Tracer* tracer);

/// Per-pass timings and counters of the compile-side probes over the
/// whole query set.  A pass covers what Compile runs for every query:
/// Engine::MakePlans (planner-compiled queries only), PqrOptimizer::Pruned
/// over each plan Compile runs as a CFO, and PlanVerifier::Verify over the
/// plan set.
struct CompileProbe {
  double plan_s = 0, optimize_s = 0, verify_s = 0;  // medians over passes
  int passes = 0;
  // Counters of one pass (each pass must reproduce them exactly).
  std::int64_t candidates = 0, split_attempts = 0, splits = 0, plans = 0;
  std::int64_t searches = 0, cuboids_evaluated = 0, cuboids_pruned = 0,
               infeasible = 0;
  std::int64_t checks = 0;
  /// Passes whose counters differed from the first pass.
  std::int64_t inexact_passes = 0;
};

CompileProbe RunCompileProbes(const Workload& w, double budget,
                              fuseme::Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
