// Compile-once / execute-many amortization (DESIGN.md section 18): the
// host-side cost of Engine::Compile versus Engine::Execute on the GNMF
// update step, and the amortized per-run cost of replaying one
// CompiledPlan ten times.
//
// Beyond the timings this harness *asserts* the facade's contract and
// exits non-zero on a violation:
//   * compile happens exactly once — the fuseme_solver_resolutions_total
//     and fuseme_planner_plans_total counter families must stay flat
//     across every Execute of a compiled artifact,
//   * every replayed Execute is bitwise identical to the first one
//     (outputs and shuffle/flops accounting).
//
// Environment overrides for quick smoke runs (scripts/run_bench_smoke.sh):
//   FUSEME_BENCH_COMPILE_N   matrix dimension (default 768)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/compiled_plan.h"
#include "matrix/generators.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

std::vector<BenchRecord> g_records;
MetricsRegistry g_metrics;

constexpr int kExecuteReps = 10;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IdenticalOutputs(const Engine::RunResult& a, const Engine::RunResult& b) {
  if (a.outputs.size() != b.outputs.size()) return false;
  for (const auto& [id, dm] : a.outputs) {
    auto it = b.outputs.find(id);
    if (it == b.outputs.end()) return false;
    if (DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(),
                                it->second.blocks().ToDense()) != 0.0) {
      return false;
    }
  }
  return a.report.consolidation_bytes == b.report.consolidation_bytes &&
         a.report.aggregation_bytes == b.report.aggregation_bytes &&
         a.report.flops == b.report.flops;
}

}  // namespace

int main() {
  std::int64_t n = 768;
  if (const char* env = std::getenv("FUSEME_BENCH_COMPILE_N")) {
    n = std::max<std::int64_t>(128, std::atoll(env));
  }
  const std::int64_t k = 32;
  const std::int64_t bs = 32;
  const double density = 0.05;
  const std::int64_t nnz = static_cast<std::int64_t>(
      static_cast<double>(n) * static_cast<double>(n) * density);

  GnmfQuery q = BuildGnmf(n, n, k, nnz);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(n, n, density, /*seed=*/1, 1.0, 2.0), bs);
  inputs[q.V] = BlockedMatrix::FromDense(
      RandomDense(n, k, /*seed=*/2, 0.5, 1.5), bs);
  inputs[q.U] = BlockedMatrix::FromDense(
      RandomDense(k, n, /*seed=*/3, 0.5, 1.5), bs);

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 2;
  options.cluster.block_size = bs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.metrics = &g_metrics;
  const Engine engine = CreateEngine(options);

  const double compile_t0 = Now();
  Result<CompiledPlan> compiled = engine.Compile(q.dag);
  const double compile_wall = Now() - compile_t0;
  if (!compiled.ok()) {
    std::fprintf(stderr, "FAIL: Compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }

  // The compile-happens-once watermark: these families move only while
  // planning/resolving, so replayed executes must leave them flat.
  const MetricsSnapshot after_compile = g_metrics.Snapshot();
  const std::int64_t resolutions_watermark =
      after_compile.CounterTotal(metric_names::kSolverResolutions);
  const std::int64_t planner_watermark =
      after_compile.CounterTotal(metric_names::kPlannerPlans);

  const double exec_t0 = Now();
  Engine::RunResult first = engine.Execute(*compiled, inputs);
  const double execute_wall = Now() - exec_t0;
  if (!first.report.ok()) {
    std::fprintf(stderr, "FAIL: Execute failed: %s\n",
                 first.report.status.ToString().c_str());
    return 1;
  }

  const double batch_t0 = Now();
  for (int rep = 1; rep < kExecuteReps; ++rep) {
    Engine::RunResult replay = engine.Execute(*compiled, inputs);
    if (!replay.report.ok()) {
      std::fprintf(stderr, "FAIL: Execute rep %d failed: %s\n", rep,
                   replay.report.status.ToString().c_str());
      return 1;
    }
    if (!IdenticalOutputs(first, replay)) {
      std::fprintf(stderr, "FAIL: Execute rep %d diverged\n", rep);
      return 1;
    }
  }
  const double amortized_wall =
      (execute_wall + (Now() - batch_t0)) / kExecuteReps;

  const MetricsSnapshot after_executes = g_metrics.Snapshot();
  const std::int64_t resolutions_now =
      after_executes.CounterTotal(metric_names::kSolverResolutions);
  const std::int64_t planner_now =
      after_executes.CounterTotal(metric_names::kPlannerPlans);
  if (resolutions_now != resolutions_watermark) {
    std::fprintf(stderr,
                 "FAIL: solver resolutions moved across executes "
                 "(%lld -> %lld): Execute re-resolved instead of replaying\n",
                 static_cast<long long>(resolutions_watermark),
                 static_cast<long long>(resolutions_now));
    return 1;
  }
  if (planner_now != planner_watermark) {
    std::fprintf(stderr,
                 "FAIL: planner ran across executes (%lld -> %lld plans): "
                 "Execute re-planned instead of replaying\n",
                 static_cast<long long>(planner_watermark),
                 static_cast<long long>(planner_now));
    return 1;
  }

  std::printf(
      "gnmf n=%lld k=%lld: compile %.4fs   execute %.4fs   "
      "amortized over %d executes %.4fs/run\n",
      static_cast<long long>(n), static_cast<long long>(k), compile_wall,
      execute_wall, kExecuteReps, amortized_wall);
  std::printf("compile-exactly-once: %lld resolutions, %lld planner plans "
              "(flat across %d executes)\n",
              static_cast<long long>(resolutions_watermark),
              static_cast<long long>(planner_watermark), kExecuteReps);

  const std::vector<std::pair<std::string, std::string>> shape = {
      {"n", std::to_string(n)},
      {"k", std::to_string(k)},
      {"block_size", std::to_string(bs)},
      {"density", "0.05"}};
  auto record = [&](const char* name, double wall,
                    const ExecutionReport& report) {
    BenchRecord r = RecordFor(name, report, shape);
    r.elapsed_seconds = wall;  // host wall clock, not modeled seconds
    return r;
  };
  g_records.push_back(record("compile", compile_wall, first.report));
  g_records.back().bytes = 0;
  g_records.back().flops = 0;
  g_records.push_back(record("execute", execute_wall, first.report));
  BenchRecord amortized =
      record("execute_amortized", amortized_wall, first.report);
  amortized.config.emplace_back("reps", std::to_string(kExecuteReps));
  g_records.push_back(std::move(amortized));

  if (!WriteBenchJson("compile", g_records,
                      after_executes.ToJson())) {
    return 1;
  }
  return 0;
}
