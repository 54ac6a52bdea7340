// Policy-level behaviours added on top of the basic engine tests: the
// cpmm fallback, narrow-dependency accounting, the TensorFlow mode, and
// the GNMF matrix-chain variants.

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions SmallOptions(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  return options;
}

TEST(CpmmTest, ForcedCpmmMatchesReference) {
  // A plain matmul executed as a (1,1,R) k-partitioned shuffle.
  Dag dag;
  NodeId a = *dag.AddInput("A", 10, 40);
  NodeId b = *dag.AddInput("B", 40, 12);
  NodeId mm = *dag.AddMatMul(a, b);
  dag.MarkOutput(mm);
  DenseMatrix av = RandomDense(10, 40, 1, 0.5, 1.5);
  DenseMatrix bv = RandomDense(40, 12, 2, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[a] = BlockedMatrix::FromDense(av, kBs);
  inputs[b] = BlockedMatrix::FromDense(bv, kBs);
  auto expected = ReferenceEval(dag, mm, {{a, av}, {b, bv}});
  ASSERT_TRUE(expected.ok());

  FusionPlanSet plans;
  plans.plans.emplace_back(&dag, std::vector<NodeId>{mm}, mm);
  Engine engine = MakeEngine(SmallOptions(SystemMode::kSystemDs));
  auto run = CompileAndExecute(engine, dag, plans, inputs, OperatorKind::kCpmm);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_LE(DenseMatrix::MaxAbsDiff(run.outputs.at(mm).blocks().ToDense(),
                                    *expected),
            1e-10);
  EXPECT_NE(run.report.stages[0].label.find("[cpmm]"), std::string::npos);
}

TEST(CpmmTest, AnalyticSystemDsSurvivesHugeSides) {
  // YahooMusic k=1000 regime: neither broadcast (14.6 GB side) nor
  // replication (whole lhs per task) fits; cpmm must carry the stage.
  GnmfQuery q = BuildGnmf(1823179, 136736, 1000, 717872016);
  EngineOptions options;
  options.system = SystemMode::kSystemDs;
  options.analytic = true;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, q.dag, {});
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  bool used_cpmm = false;
  for (const StageStats& s : run.report.stages) {
    if (s.label.find("[cpmm]") != std::string::npos) used_cpmm = true;
  }
  EXPECT_TRUE(used_cpmm);
}

TEST(NarrowDependencyTest, CoPartitionedEwiseStageIsShuffleFree) {
  // X * U with both inputs grid-partitioned: zero consolidation traffic.
  Dag dag;
  NodeId x = *dag.AddInput("X", 32, 32, 100);
  NodeId u = *dag.AddInput("U", 32, 32);
  NodeId mul = *dag.AddBinary(BinaryFn::kMul, x, u);
  dag.MarkOutput(mul);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[x] = BlockedMatrix::FromSparse(RandomSparse(32, 32, 0.1, 3), kBs);
  inputs[u] = BlockedMatrix::FromDense(RandomDense(32, 32, 4), kBs);
  Engine engine = MakeEngine(SmallOptions(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, dag, inputs);
  ASSERT_TRUE(run.report.ok());
  EXPECT_EQ(run.report.consolidation_bytes, 0)
      << "co-partitioned element-wise inputs must not shuffle";
}

TEST(NarrowDependencyTest, TransposeStageStillShuffles) {
  Dag dag;
  NodeId x = *dag.AddInput("X", 32, 16);
  NodeId t = *dag.AddTranspose(x);
  dag.MarkOutput(t);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[x] = BlockedMatrix::FromDense(RandomDense(32, 16, 5), kBs);
  Engine engine = MakeEngine(SmallOptions(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, dag, inputs);
  ASSERT_TRUE(run.report.ok());
  EXPECT_GT(run.report.consolidation_bytes, 0)
      << "reorganization is a wide dependency";
}

TEST(TensorFlowModeTest, MatchesReferenceOnNmf) {
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, 71, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 10, 72, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 10, 73, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.mul,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  Engine engine = MakeEngine(SmallOptions(SystemMode::kTensorFlow));
  auto run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_LE(DenseMatrix::MaxAbsDiff(run.outputs.at(q.mul).blocks().ToDense(),
                                    *expected),
            1e-9);
}

TEST(GnmfChainTest, BothAssociationsAgreeNumerically) {
  const std::int64_t m = 26, n = 20, k = 6;
  SparseMatrix x = RandomSparse(m, n, 0.2, 81, 1.0, 5.0);
  DenseMatrix v = RandomDense(m, k, 82, 0.5, 1.5);
  DenseMatrix u = RandomDense(k, n, 83, 0.5, 1.5);
  DenseMatrix expected;
  for (bool chain_opt : {true, false}) {
    GnmfQuery q = BuildGnmf(m, n, k, x.nnz(), chain_opt);
    auto v_next = ReferenceEval(
        q.dag, q.b5, {{q.X, x.ToDense()}, {q.V, v}, {q.U, u}});
    ASSERT_TRUE(v_next.ok());
    if (chain_opt) {
      expected = *v_next;
    } else {
      EXPECT_LE(DenseMatrix::MaxAbsDiff(*v_next, expected), 1e-9);
    }
  }
}

TEST(GnmfChainTest, UnoptimizedChainCostsMoreAnalytically) {
  const RatingDataset d{"Netflix", 480189, 17770, 100480507};
  double costs[2];
  for (bool chain_opt : {true, false}) {
    GnmfQuery q = BuildGnmf(d.users, d.items, 200, d.ratings, chain_opt);
    EngineOptions options;
    options.analytic = true;
    options.system = SystemMode::kMatFast;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, {});
    ASSERT_TRUE(run.report.ok()) << run.report.status;
    costs[chain_opt ? 0 : 1] = run.report.elapsed_seconds;
  }
  EXPECT_GT(costs[1], 2.0 * costs[0]);
}

TEST(AggBytesTest, MaskedPartialsShrinkAggregation) {
  ClusterConfig cluster;
  CostModel model(cluster);
  NmfPattern sparse_q = BuildNmfPattern(50000, 50000, 4000, 2500000);
  NmfPattern dense_q =
      BuildNmfPattern(50000, 50000, 4000, 2500000000LL);
  PartialPlan sparse_plan(&sparse_q.dag,
                          {sparse_q.vT, sparse_q.mm, sparse_q.add,
                           sparse_q.log, sparse_q.mul},
                          sparse_q.mul);
  PartialPlan dense_plan(&dense_q.dag,
                         {dense_q.vT, dense_q.mm, dense_q.add, dense_q.log,
                          dense_q.mul},
                         dense_q.mul);
  const Cuboid c{4, 4, 4};
  EXPECT_LT(model.AggBytes(c, sparse_plan),
            model.AggBytes(c, dense_plan) / 100.0);
}

TEST(ForcedOperatorTest, CpmmOnFusedPlanMatchesOthers) {
  NmfPattern q = BuildNmfPattern(26, 22, 18, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, 91, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 18, 92, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 18, 93, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.mul,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  Engine engine = MakeEngine(SmallOptions(SystemMode::kFuseMe));
  auto run =
      CompileAndExecute(engine, q.dag, full, inputs, OperatorKind::kCpmm);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_LE(DenseMatrix::MaxAbsDiff(run.outputs.at(q.mul).blocks().ToDense(),
                                    *expected),
            1e-9);
}

}  // namespace
}  // namespace fuseme
