// Figure 12 (+ Table 3): distributed fused operator comparison on
// O = X * log(U × Vᵀ + eps) over the three synthetic sweeps and the
// node-scaling experiment.  Systems: SystemDS's BFO/RFO (selected by the
// §6.2 rule, as SystemDS does), DistME (CuboidMM, no fusion), and FuseME's
// CFO.  The §6.2 methodology executes the whole query as ONE fused
// operator in the fused systems (the planner is bypassed).
//
// Elapsed times and communication come from the analytic executor on the
// paper's modeled cluster (8 nodes, 12 tasks/node, 10 GB/task, 1 Gbps).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "telemetry/metrics.h"
#include "matrix/generators.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

std::vector<BenchRecord> g_records;
Tracer g_tracer;  // spans from every engine run; TRACE_fig12_operators.json
MetricsRegistry g_metrics;  // embedded in BENCH_fig12_operators.json

struct Row {
  std::string label;
  ExecutionReport systemds;
  std::string systemds_op;  // "B" or "R"
  ExecutionReport distme;
  ExecutionReport fuseme;
  Cuboid pqr;
};

Row RunSpec(const SyntheticSpec& spec, int num_nodes = 8) {
  Row row;
  row.label = spec.label;
  NmfPattern q = BuildNmfPattern(spec.i, spec.j, spec.k, spec.x_nnz());
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  full.description = "single fused operator (Sec 6.2 methodology)";

  EngineOptions options;
  options.analytic = true;
  options.cluster.num_nodes = num_nodes;
  options.tracer = &g_tracer;
  options.metrics = &g_metrics;

  {  // SystemDS: BFO or RFO by the §6.2 rule — its only two *fused*
     // operators ("SystemDS uses only either BFO or RFO").
    options.system = SystemMode::kSystemDs;
    const Engine engine = CreateEngine(options);
    const std::int64_t bs = options.cluster.block_size;
    const std::int64_t gi = (spec.i + bs - 1) / bs;
    const std::int64_t gj = (spec.j + bs - 1) / bs;
    const std::int64_t parts = EstimateSparkPartitions(
        SizeOf(q.dag, q.X), gi * gj);
    const bool use_bfo = parts < gi || parts < gj;
    row.systemds_op = use_bfo ? "B" : "R";
    auto run = CompileAndExecute(
        engine, q.dag, full, {},
        use_bfo ? OperatorKind::kBfo : OperatorKind::kRfo);
    row.systemds = run.report;
  }
  {  // DistME: operator-at-a-time with CuboidMM.
    options.system = SystemMode::kDistMe;
    const Engine engine = CreateEngine(options);
    row.distme = CompileAndExecute(engine, q.dag, {}).report;
  }
  {  // FuseME: the whole query as one CFO.
    options.system = SystemMode::kFuseMe;
    const Engine engine = CreateEngine(options);
    auto run = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kCfo);
    row.fuseme = run.report;
    // Recover (P*,Q*,R*) for Table 3.
    PqrOptimizer opt(&engine.cost_model());
    row.pqr = opt.Pruned(full.plans[0]).c;
  }
  return row;
}

void PrintSweep(const char* title, const std::vector<SyntheticSpec>& specs) {
  std::printf("--- %s ---\n", title);
  PrintRow({"n", "SystemDS", "", "DistME", "FuseME", "", "(P*,Q*,R*)"});
  PrintRow({"", "elapsed", "comm GB", "elapsed", "elapsed", "comm GB", ""});
  PrintRule(7);
  for (const SyntheticSpec& spec : specs) {
    Row row = RunSpec(spec);
    PrintRow({row.label + " (" + row.systemds_op + ")",
              ElapsedCell(row.systemds), BytesCell(row.systemds),
              ElapsedCell(row.distme), ElapsedCell(row.fuseme),
              BytesCell(row.fuseme), row.pqr.ToString()});
    const std::vector<std::pair<std::string, std::string>> base = {
        {"sweep", title}, {"dataset", row.label}};
    auto with_system = [&](const char* system) {
      auto config = base;
      config.emplace_back("system", system);
      return config;
    };
    g_records.push_back(
        RecordFor("fig12_systemds", row.systemds, with_system("SystemDS")));
    g_records.push_back(
        RecordFor("fig12_distme", row.distme, with_system("DistME")));
    g_records.push_back(
        RecordFor("fig12_fuseme", row.fuseme, with_system("FuseME")));
  }
  std::printf("\n");
}

// --- Real-mode CFO stage: serial vs parallel wall clock (ISSUE
// acceptance).  A single fused CFO over actual blocks; identical plans,
// identical inputs, local_threads=1 vs the machine's parallelism.  The
// outputs and the accounted StageStats must match exactly. ---

/// Compiles the CFO plan once and returns the best wall clock of three
/// Executes of it.
double TimeCfoSeconds(const Engine& engine, const NmfPattern& q,
                      const FusionPlanSet& plans,
                      const std::map<NodeId, BlockedMatrix>& inputs,
                      Engine::RunResult* out) {
  Result<CompiledPlan> compiled =
      engine.CompileWithPlans(q.dag, plans, OperatorKind::kCfo);
  if (!compiled.ok()) {
    std::fprintf(stderr, "CFO compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(1);
  }
  double best = 1e30;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    *out = engine.Execute(*compiled, inputs);
    const auto t1 = std::chrono::steady_clock::now();
    if (!out->report.ok()) {
      std::fprintf(stderr, "CFO run failed: %s\n",
                   out->report.status.ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void RunRealModeCfoSpeedup() {
  // FUSEME_BENCH_CFO_N overrides the matrix dimension (quick local runs).
  std::int64_t n = 4096;
  if (const char* env = std::getenv("FUSEME_BENCH_CFO_N")) {
    n = std::max<std::int64_t>(256, std::atoll(env));
  }
  const std::int64_t k = 256, bs = 256;
  const int machine = GlobalParallelism();
  std::printf(
      "--- real-mode CFO on X*log(U x V^T + eps), %lldx%lld k=%lld bs=%lld, "
      "1 thread vs %d ---\n",
      static_cast<long long>(n), static_cast<long long>(n),
      static_cast<long long>(k), static_cast<long long>(bs), machine);

  NmfPattern q = BuildNmfPattern(n, n, k, n * n / 100);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(n, n, 0.01, 1, 1.0, 2.0), bs);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(n, k, 2, 0.5, 1.5), bs);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(n, k, 3, 0.5, 1.5), bs);

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.block_size = bs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.tracer = &g_tracer;
  options.metrics = &g_metrics;

  options.cluster.local_threads = 1;
  Engine::RunResult serial_run, parallel_run;
  const double serial =
      TimeCfoSeconds(CreateEngine(options), q, full, inputs, &serial_run);
  options.cluster.local_threads = 0;  // process default
  const double parallel =
      TimeCfoSeconds(CreateEngine(options), q, full, inputs, &parallel_run);

  const DenseMatrix a = serial_run.outputs.at(q.mul).blocks().ToDense();
  const DenseMatrix b = parallel_run.outputs.at(q.mul).blocks().ToDense();
  const bool outputs_equal = DenseMatrix::MaxAbsDiff(a, b) == 0.0;
  const ExecutionReport& sr = serial_run.report;
  const ExecutionReport& pr = parallel_run.report;
  const bool stats_equal = sr.consolidation_bytes == pr.consolidation_bytes &&
                           sr.aggregation_bytes == pr.aggregation_bytes &&
                           sr.flops == pr.flops &&
                           sr.max_task_memory == pr.max_task_memory;
  if (!outputs_equal || !stats_equal) {
    std::fprintf(stderr, "FAIL: parallel CFO %s differ from serial\n",
                 outputs_equal ? "StageStats" : "outputs");
    std::exit(1);
  }

  std::printf(
      "serial  %.3fs\nparallel %.3fs\n"
      "speedup %.2fx at %d threads (outputs and StageStats identical)\n\n",
      serial, parallel, serial / parallel, machine);

  auto config = [&](int threads) {
    std::vector<std::pair<std::string, std::string>> c = {
        {"n", std::to_string(n)},
        {"k", std::to_string(k)},
        {"block_size", std::to_string(bs)},
        {"threads", std::to_string(threads)}};
    return c;
  };
  BenchRecord rec_serial = RecordFor("cfo_real_mode", sr, config(1));
  rec_serial.elapsed_seconds = serial;  // wall clock, not modeled seconds
  BenchRecord rec_parallel = RecordFor("cfo_real_mode", pr, config(machine));
  rec_parallel.elapsed_seconds = parallel;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", serial / parallel);
  rec_parallel.config.emplace_back("speedup", buf);
  g_records.push_back(std::move(rec_serial));
  g_records.push_back(std::move(rec_parallel));
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 12: BFO/RFO vs DistME vs CFO on X*log(U x V^T + eps) "
      "===\n\n");
  PrintSweep("Fig 12(a,e): two large dimensions (n x 2K x n, d=0.001)",
             VaryTwoLargeDimensions());
  PrintSweep("Fig 12(b,f): common dimension (100K x n x 100K, d=0.2)",
             VaryCommonDimension());
  PrintSweep("Fig 12(c,g): density (100K x 2K x 100K)", VaryDensity());

  std::printf("--- Fig 12(d,h): varying the number of nodes ---\n");
  PrintRow({"nodes", "d", "SystemDS", "FuseME"});
  PrintRule(4);
  for (double density : {0.1, 0.2}) {
    for (int nodes : {2, 4, 8}) {
      SyntheticSpec spec{"100K", 100000, 100000, 2000, density};
      Row row = RunSpec(spec, nodes);
      char d[16];
      std::snprintf(d, sizeof(d), "%.1f", density);
      PrintRow({std::to_string(nodes), d,
                ElapsedCell(row.systemds) + " (" + row.systemds_op + ")",
                ElapsedCell(row.fuseme)});
    }
  }
  std::printf(
      "\nTable 3 note: the (P*,Q*,R*) column above is the optimizer's pick\n"
      "per dataset (paper Table 3 reports (8,6,2)-style values).\n\n");

  RunRealModeCfoSpeedup();
  if (!WriteBenchJson("fig12_operators", g_records,
                      g_metrics.Snapshot().ToJson())) {
    return 1;
  }
  WriteTraceJson("fig12_operators", g_tracer);
  return 0;
}
