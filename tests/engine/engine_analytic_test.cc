// Analytic-mode execution: paper-scale experiments driven purely from
// metadata, plus consistency checks against real-mode measurements.

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

EngineOptions PaperOptions(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.analytic = true;
  // Paper defaults: 8 nodes, 12 tasks, 10 GB, 1 Gbps, 546 GFLOPS, 1000-block.
  return options;
}

TEST(EngineAnalyticTest, RunsWithoutBoundInputs) {
  GnmfQuery q = BuildGnmf(480000, 17700, 200, /*x_nnz=*/100480507);
  Engine engine = MakeEngine(PaperOptions(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, q.dag, {});
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_GT(run.report.elapsed_seconds, 0.0);
  EXPECT_GT(run.report.consolidation_bytes, 0);
  EXPECT_EQ(run.outputs.size(), 2u);
  // Outputs are descriptors with the right shapes.
  const DistributedMatrix& u_next = run.outputs.at(q.a5);
  EXPECT_EQ(u_next.blocks().rows(), 200);
  EXPECT_EQ(u_next.blocks().cols(), 17700);
  EXPECT_FALSE(u_next.blocks().IsReal());
}

TEST(EngineAnalyticTest, FuseMeBeatsBaselinesOnGnmf) {
  // The Fig. 14 ordering: FuseME < DistME < SystemDS < MatFast in elapsed
  // time and shuffled bytes (MovieLens-scale, k=200).
  GnmfQuery q = BuildGnmf(283228, 58098, 200, /*x_nnz=*/27753444);
  std::map<SystemMode, ExecutionReport> reports;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    Engine engine = MakeEngine(PaperOptions(mode));
    auto run = CompileAndExecute(engine, q.dag, {});
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << ": " << run.report.status;
    reports[mode] = run.report;
  }
  EXPECT_LT(reports[SystemMode::kFuseMe].elapsed_seconds,
            reports[SystemMode::kDistMe].elapsed_seconds);
  EXPECT_LT(reports[SystemMode::kFuseMe].elapsed_seconds,
            reports[SystemMode::kSystemDs].elapsed_seconds);
  EXPECT_LT(reports[SystemMode::kFuseMe].elapsed_seconds,
            reports[SystemMode::kMatFast].elapsed_seconds);
  EXPECT_LT(reports[SystemMode::kFuseMe].total_bytes(),
            reports[SystemMode::kSystemDs].total_bytes());
  EXPECT_LT(reports[SystemMode::kFuseMe].total_bytes(),
            reports[SystemMode::kMatFast].total_bytes());
}

TEST(EngineAnalyticTest, Fig12OperatorOrdering) {
  // X * log(U×Vᵀ+eps) at n=100K, d=0.001 (Fig. 12(a) first group):
  // CFO must beat BFO on elapsed time and communication.
  NmfPattern q =
      BuildNmfPattern(100000, 100000, 2000, /*x_nnz=*/10000000);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  full.description = "single fused operator";

  Engine engine = MakeEngine(PaperOptions(SystemMode::kFuseMe));
  auto cfo = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kCfo);
  auto bfo = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kBfo);
  auto rfo = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kRfo);
  ASSERT_TRUE(cfo.report.ok()) << cfo.report.status;
  ASSERT_TRUE(bfo.report.ok()) << bfo.report.status;
  ASSERT_TRUE(rfo.report.ok()) << rfo.report.status;
  EXPECT_LT(cfo.report.total_bytes(), bfo.report.total_bytes());
  EXPECT_LT(cfo.report.total_bytes(), rfo.report.total_bytes());
  EXPECT_LT(cfo.report.elapsed_seconds, bfo.report.elapsed_seconds);
  EXPECT_LT(cfo.report.elapsed_seconds, rfo.report.elapsed_seconds);
}

TEST(EngineAnalyticTest, BfoOomsWhenSidesLarge) {
  // Tall U, V at n=750K with k=2000: broadcasting both sides (~24 GB)
  // exceeds the 10 GB task budget — the Fig. 12(a) T.O./failure regime.
  NmfPattern q =
      BuildNmfPattern(750000, 750000, 2000, /*x_nnz=*/562500000);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  Engine engine = MakeEngine(PaperOptions(SystemMode::kFuseMe));
  auto bfo = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kBfo);
  EXPECT_TRUE(bfo.report.status.IsOutOfMemory());
  auto cfo = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kCfo);
  EXPECT_TRUE(cfo.report.ok()) << "CFO adapts (P,Q,R) and survives";
}

TEST(EngineAnalyticTest, AnalyticTracksRealMeasurement) {
  // On a medium grid the analytic stage statistics should be within a
  // small factor of what the real executor actually charges.
  NmfPattern q = BuildNmfPattern(160, 160, 32, /*x_nnz=*/2560);
  EngineOptions real_options;
  real_options.system = SystemMode::kFuseMe;
  real_options.cluster.num_nodes = 2;
  real_options.cluster.tasks_per_node = 3;
  real_options.cluster.block_size = 8;
  EngineOptions analytic_options = real_options;
  analytic_options.analytic = true;

  SparseMatrix x = RandomSparse(160, 160, 0.1, /*seed=*/81, 1.0, 2.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(160, 32, 82), 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(160, 32, 83), 8);

  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  auto real = CompileAndExecute(MakeEngine(real_options), q.dag, full,
                                inputs, OperatorKind::kCfo);
  auto analytic = CompileAndExecute(MakeEngine(analytic_options), q.dag,
                                    full, {}, OperatorKind::kCfo);
  ASSERT_TRUE(real.report.ok()) << real.report.status;
  ASSERT_TRUE(analytic.report.ok()) << analytic.report.status;
  const double real_bytes =
      static_cast<double>(real.report.total_bytes());
  const double analytic_bytes =
      static_cast<double>(analytic.report.total_bytes());
  EXPECT_LT(std::abs(real_bytes - analytic_bytes) / real_bytes, 1.0)
      << "real=" << real_bytes << " analytic=" << analytic_bytes;
}

TEST(EngineAnalyticTest, MorеNodesFaster) {
  // Fig. 12(d,h): elapsed time decreases as nodes grow 2 -> 4 -> 8.
  NmfPattern q = BuildNmfPattern(100000, 100000, 2000,
                                 /*x_nnz=*/1000000000);  // density 0.1
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  double prev = 1e30;
  for (int nodes : {2, 4, 8}) {
    EngineOptions options = PaperOptions(SystemMode::kFuseMe);
    options.cluster.num_nodes = nodes;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kCfo);
    ASSERT_TRUE(run.report.ok());
    EXPECT_LT(run.report.elapsed_seconds, prev);
    prev = run.report.elapsed_seconds;
  }
}

}  // namespace
}  // namespace fuseme
