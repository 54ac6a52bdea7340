// End-to-end real-mode execution: all four system policies must produce
// numerically identical results on the same queries, with policy-dependent
// plan shapes and communication profiles.

#include "engine/engine.h"

#include "engine/compiled_plan.h"

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.cluster.net_bandwidth = 1e6;
  options.cluster.compute_bandwidth = 1e8;
  return options;
}

struct GnmfFixture {
  GnmfQuery q;
  std::map<NodeId, BlockedMatrix> inputs;
  std::map<NodeId, DenseMatrix> dense;
  DenseMatrix expected_u, expected_v;

  GnmfFixture() : q(BuildGnmf(26, 20, 6, /*x_nnz=*/104)) {
    SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
    DenseMatrix v = RandomDense(26, 6, /*seed=*/52, 0.5, 1.5);
    DenseMatrix u = RandomDense(6, 20, /*seed=*/53, 0.5, 1.5);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
    inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
    dense = {{q.X, x.ToDense()}, {q.V, v}, {q.U, u}};
    expected_u = *ReferenceEval(q.dag, q.a5, dense);
    expected_v = *ReferenceEval(q.dag, q.b5, dense);
  }
};

class AllSystems : public ::testing::TestWithParam<SystemMode> {};

TEST_P(AllSystems, GnmfStepMatchesReference) {
  GnmfFixture f;
  Engine engine = MakeEngine(Options(GetParam()));
  Engine::RunResult run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  ASSERT_EQ(run.outputs.size(), 2u);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                run.outputs.at(f.q.a5).blocks().ToDense(), f.expected_u),
            1e-8);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                run.outputs.at(f.q.b5).blocks().ToDense(), f.expected_v),
            1e-8);
  EXPECT_GT(run.report.elapsed_seconds, 0.0);
  EXPECT_GT(run.report.consolidation_bytes, 0);
  EXPECT_GT(run.report.flops, 0);
  EXPECT_FALSE(run.report.stages.empty());
}

TEST_P(AllSystems, AlsLossMatchesReference) {
  AlsLossQuery q = BuildAlsLoss(24, 20, 8, /*x_nnz=*/96);
  SparseMatrix x = RandomSparse(24, 20, 0.2, /*seed=*/61, 1.0, 2.0);
  DenseMatrix u = RandomDense(24, 8, /*seed=*/62, 0.1, 0.9);
  DenseMatrix v = RandomDense(8, 20, /*seed=*/63, 0.1, 0.9);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.loss,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(expected.ok());

  Engine engine = MakeEngine(Options(GetParam()));
  Engine::RunResult run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_NEAR(run.outputs.at(q.loss).blocks().ToDense()(0, 0),
              (*expected)(0, 0), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Systems, AllSystems,
                         ::testing::Values(SystemMode::kFuseMe,
                                           SystemMode::kSystemDs,
                                           SystemMode::kMatFast,
                                           SystemMode::kDistMe),
                         [](const auto& info) {
                           return std::string(SystemModeName(info.param));
                         });

TEST(EngineTest, FuseMeUsesFewerStagesThanDistMe) {
  GnmfFixture f;
  Engine fuseme = MakeEngine(Options(SystemMode::kFuseMe));
  Engine distme = MakeEngine(Options(SystemMode::kDistMe));
  auto run_f = CompileAndExecute(fuseme, f.q.dag, f.inputs);
  auto run_d = CompileAndExecute(distme, f.q.dag, f.inputs);
  ASSERT_TRUE(run_f.report.ok());
  ASSERT_TRUE(run_d.report.ok());
  EXPECT_LT(run_f.report.stages.size(), run_d.report.stages.size());
}

TEST(EngineTest, MissingInputReported) {
  GnmfFixture f;
  std::map<NodeId, BlockedMatrix> partial = f.inputs;
  partial.erase(f.q.U);
  Engine engine = MakeEngine(Options(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, f.q.dag, partial);
  EXPECT_TRUE(run.report.status.IsInvalidArgument());
  EXPECT_TRUE(run.outputs.empty());
}

TEST(EngineTest, TimeoutSurfacesAsTo) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.cluster.timeout_seconds = 1e-9;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  EXPECT_TRUE(run.report.status.IsTimedOut());
  EXPECT_NE(run.report.Summary().find("T.O."), std::string::npos);
}

TEST(EngineTest, OomSurfacesFromTinyBudget) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kMatFast);
  options.cluster.task_memory_budget = 128;  // nothing fits
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  EXPECT_TRUE(run.report.status.IsOutOfMemory());
  EXPECT_NE(run.report.Summary().find("O.O.M."), std::string::npos);
}

TEST(EngineTest, ForcedOperatorsAgreeNumerically) {
  // The Fig. 12 methodology: one full-query plan executed as BFO/RFO/CFO.
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 10, /*seed=*/72, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 10, /*seed=*/73, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.mul,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(expected.ok());

  FusionPlanSet full;
  full.plans.emplace_back(&q.dag,
                          std::vector<NodeId>{q.vT, q.mm, q.add, q.log,
                                              q.mul},
                          q.mul);
  full.description = "single full-query plan";

  Engine engine = MakeEngine(Options(SystemMode::kFuseMe));
  for (OperatorKind kind :
       {OperatorKind::kCfo, OperatorKind::kBfo, OperatorKind::kRfo}) {
    auto compiled = engine.CompileWithPlans(q.dag, full, kind);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto run = engine.Execute(*compiled, inputs);
    ASSERT_TRUE(run.report.ok()) << run.report.status;
    EXPECT_LE(DenseMatrix::MaxAbsDiff(
                  run.outputs.at(q.mul).blocks().ToDense(), *expected),
              1e-9);
  }
}

TEST(EngineTest, ReportSummaryReadsWell) {
  GnmfFixture f;
  Engine engine = MakeEngine(Options(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.report.ok());
  std::string summary = run.report.Summary();
  EXPECT_NE(summary.find("shuffled"), std::string::npos);
  EXPECT_NE(summary.find("stages"), std::string::npos);
}

}  // namespace
}  // namespace fuseme
