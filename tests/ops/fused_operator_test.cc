// Distributed fused operators vs the single-node oracle, across cuboid
// shapes, both operators, sparse and dense data, and aggregation roots.

#include "ops/fused_operator.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

ClusterConfig TestCluster(std::int64_t budget_bytes = 1LL << 40) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.tasks_per_node = 3;
  config.block_size = kBs;
  config.task_memory_budget = budget_bytes;
  return config;
}

struct Bound {
  std::map<NodeId, BlockedMatrix> blocked;
  std::map<NodeId, DenseMatrix> dense;
  std::map<NodeId, DistributedMatrix> dist;

  void Bind(NodeId id, DenseMatrix value) {
    blocked[id] = BlockedMatrix::FromDense(value, kBs);
    dense[id] = std::move(value);
  }
  void BindSparse(NodeId id, const SparseMatrix& value) {
    blocked[id] = BlockedMatrix::FromSparse(value, kBs);
    dense[id] = value.ToDense();
  }
  FusedInputs Inputs(int num_tasks) {
    FusedInputs out;
    for (auto& [id, m] : blocked) {
      dist.emplace(id, DistributedMatrix::Create(m, PartitionScheme::kGrid,
                                                 num_tasks));
    }
    for (auto& [id, dm] : dist) out[id] = &dm;
    return out;
  }
};

struct NmfCase {
  NmfPattern q;
  Bound bound;
  DenseMatrix expected;

  NmfCase(std::int64_t i, std::int64_t j, std::int64_t k, double density)
      : q(BuildNmfPattern(i, j, k,
                          static_cast<std::int64_t>(i * j * density))) {
    bound.BindSparse(q.X, RandomSparse(i, j, density, /*seed=*/7, 1.0, 2.0));
    bound.Bind(q.U, RandomDense(i, k, /*seed=*/8, 0.5, 1.5));
    bound.Bind(q.V, RandomDense(j, k, /*seed=*/9, 0.5, 1.5));
    auto ref = ReferenceEval(q.dag, q.mul, bound.dense);
    FUSEME_CHECK(ref.ok());
    expected = *ref;
  }

  PartialPlan Plan() const {
    return PartialPlan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }
};

class CfoCuboidSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(CfoCuboidSweep, MatchesReferenceForAnyPqr) {
  auto [p, q_, r, density] = GetParam();
  NmfCase c(26, 22, 18, density);  // K spans 3 blocks: R up to 3
  PartialPlan plan = c.Plan();
  StageContext ctx("cfo", TestCluster());
  auto result = CuboidFusedOperator::Execute(
      plan, Cuboid{p, q_, r}, c.bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(
      DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), c.expected),
      1e-9);
  StageStats stats = ctx.Finalize();
  EXPECT_GT(stats.consolidation_bytes, 0);
  EXPECT_GT(stats.flops, 0);
  EXPECT_EQ(stats.num_tasks, ctx.num_tasks());
  if (r > 1) {
    EXPECT_GT(stats.aggregation_bytes, 0);  // k-partials were shuffled
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CfoCuboidSweep,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.1),
                      std::make_tuple(2, 2, 1, 0.1),
                      std::make_tuple(3, 2, 2, 0.1),
                      std::make_tuple(1, 1, 3, 0.1),
                      std::make_tuple(2, 3, 3, 0.05),
                      std::make_tuple(4, 3, 1, 1.0),
                      std::make_tuple(2, 2, 2, 1.0)));

TEST(CuboidFusedOperatorTest, RfoSpecialCaseMatches) {
  NmfCase c(26, 22, 10, 0.1);
  PartialPlan plan = c.Plan();
  // RFO = (I, J, 1): 4x3 grid of 8-blocks.
  StageContext ctx("rfo", TestCluster());
  auto result = CuboidFusedOperator::Execute(plan, Cuboid{4, 3, 1},
                                             c.bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(
      DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), c.expected),
      1e-9);
}

TEST(CuboidFusedOperatorTest, ReplicationGrowsWithQ) {
  NmfCase c(26, 22, 10, 0.1);
  PartialPlan plan = c.Plan();
  auto net_for = [&](Cuboid cb) {
    NmfCase fresh(26, 22, 10, 0.1);
    StageContext ctx("cfo", TestCluster());
    auto result = CuboidFusedOperator::Execute(plan, cb,
                                               fresh.bound.Inputs(6), &ctx);
    FUSEME_CHECK(result.ok());
    return ctx.Finalize().consolidation_bytes;
  };
  // U (the L-space input) is re-fetched by more tasks as Q grows.
  EXPECT_LT(net_for(Cuboid{2, 1, 1}), net_for(Cuboid{2, 3, 1}));
}

TEST(CuboidFusedOperatorTest, OutOfMemorySurfaceWhenBudgetTiny) {
  NmfCase c(26, 22, 10, 1.0);
  PartialPlan plan = c.Plan();
  StageContext ctx("cfo", TestCluster(/*budget_bytes=*/256));
  auto result = CuboidFusedOperator::Execute(plan, Cuboid{1, 1, 1},
                                             c.bound.Inputs(6), &ctx);
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(CuboidFusedOperatorTest, AggregationRootFullSum) {
  // ALS weighted loss: sum((X!=0) * (X - U×V)^2).
  AlsLossQuery q = BuildAlsLoss(24, 20, 10, /*x_nnz=*/48);
  Bound bound;
  bound.BindSparse(q.X, RandomSparse(24, 20, 0.1, /*seed=*/11, 1.0, 2.0));
  bound.Bind(q.U, RandomDense(24, 10, /*seed=*/12, 0.1, 0.9));
  bound.Bind(q.V, RandomDense(10, 20, /*seed=*/13, 0.1, 0.9));
  auto expected = ReferenceEval(q.dag, q.loss, bound.dense);
  ASSERT_TRUE(expected.ok());

  PartialPlan plan(&q.dag, {q.mm, q.mask, q.sub, q.sq, q.mul, q.loss},
                   q.loss);
  for (Cuboid cb : {Cuboid{1, 1, 1}, Cuboid{2, 2, 1}, Cuboid{3, 2, 2}}) {
    Bound fresh = bound;
    fresh.dist.clear();
    StageContext ctx("cfo-agg", TestCluster());
    auto result =
        CuboidFusedOperator::Execute(plan, cb, fresh.Inputs(6), &ctx);
    ASSERT_TRUE(result.ok()) << result.status() << " at " << cb.ToString();
    DenseMatrix got = result->blocks().ToDense();
    ASSERT_EQ(got.rows(), 1);
    ASSERT_EQ(got.cols(), 1);
    EXPECT_NEAR(got(0, 0), (*expected)(0, 0), 1e-8) << cb.ToString();
  }
}

TEST(CuboidFusedOperatorTest, AggregationRootRowAndCol) {
  // rowSums(X * U) and colSums(X * U) as fused cell plans with agg tops.
  Dag dag;
  NodeId x = *dag.AddInput("X", 20, 12, 60);
  NodeId u = *dag.AddInput("U", 20, 12);
  NodeId mul = *dag.AddBinary(BinaryFn::kMul, x, u);
  NodeId row = *dag.AddUnaryAgg(AggFn::kSum, AggAxis::kRow, mul);
  Dag dag2;
  NodeId x2 = *dag2.AddInput("X", 20, 12, 60);
  NodeId u2 = *dag2.AddInput("U", 20, 12);
  NodeId mul2 = *dag2.AddBinary(BinaryFn::kMul, x2, u2);
  NodeId col = *dag2.AddUnaryAgg(AggFn::kSum, AggAxis::kCol, mul2);

  SparseMatrix xs = RandomSparse(20, 12, 0.25, /*seed=*/21, 1.0, 2.0);
  DenseMatrix ud = RandomDense(20, 12, /*seed=*/22, 0.5, 1.5);

  {
    Bound bound;
    bound.BindSparse(x, xs);
    bound.Bind(u, ud);
    auto expected = ReferenceEval(dag, row, bound.dense);
    ASSERT_TRUE(expected.ok());
    PartialPlan plan(&dag, {mul, row}, row);
    StageContext ctx("row", TestCluster());
    auto result = CuboidFusedOperator::Execute(plan, Cuboid{2, 2, 1},
                                               bound.Inputs(6), &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(
        DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), *expected),
        1e-9);
  }
  {
    Bound bound;
    bound.BindSparse(x2, xs);
    bound.Bind(u2, ud);
    auto expected = ReferenceEval(dag2, col, bound.dense);
    ASSERT_TRUE(expected.ok());
    PartialPlan plan(&dag2, {mul2, col}, col);
    StageContext ctx("col", TestCluster());
    auto result = CuboidFusedOperator::Execute(plan, Cuboid{2, 2, 1},
                                               bound.Inputs(6), &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(
        DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), *expected),
        1e-9);
  }
}

TEST(CuboidFusedOperatorTest, GnmfFusedPlanMatchesReference) {
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  Bound bound;
  bound.BindSparse(q.X, RandomSparse(26, 20, 0.2, /*seed=*/31, 1.0, 5.0));
  bound.Bind(q.V, RandomDense(26, 6, /*seed=*/32, 0.5, 1.5));
  bound.Bind(q.U, RandomDense(6, 20, /*seed=*/33, 0.5, 1.5));
  // Materialize vT first (it is a separate singleton stage in practice).
  auto vt_ref = ReferenceEval(q.dag, q.vT, bound.dense);
  ASSERT_TRUE(vt_ref.ok());
  bound.Bind(q.vT, *vt_ref);

  auto expected = ReferenceEval(q.dag, q.a5, bound.dense);
  ASSERT_TRUE(expected.ok());

  PartialPlan plan(&q.dag, {q.a1, q.a2, q.a3, q.a4, q.a5}, q.a5);
  StageContext ctx("gnmf-f1", TestCluster());
  auto result = CuboidFusedOperator::Execute(plan, Cuboid{1, 2, 2},
                                             bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), *expected),
            1e-8);
}

/// Everything a cuboid run reports that must not depend on the thread
/// count that ran it.
struct CfoRun {
  DenseMatrix out;
  std::vector<TaskAccounting> tasks;
};

CfoRun RunCfo(NmfCase* c, Cuboid cb, int threads) {
  ClusterConfig config = TestCluster();
  config.local_threads = threads;
  StageContext ctx("cfo-groups", config);
  auto result =
      CuboidFusedOperator::Execute(c->Plan(), cb, c->bound.Inputs(6), &ctx);
  FUSEME_CHECK(result.ok()) << result.status();
  CfoRun run;
  run.out = result->blocks().ToDense();
  for (int t = 0; t < ctx.num_tasks(); ++t) run.tasks.push_back(ctx.task(t));
  return run;
}

void ExpectSameRun(const CfoRun& want, const CfoRun& got) {
  ASSERT_EQ(want.out.rows(), got.out.rows());
  ASSERT_EQ(want.out.cols(), got.out.cols());
  EXPECT_EQ(std::memcmp(want.out.data(), got.out.data(),
                        sizeof(double) * want.out.rows() * want.out.cols()),
            0)
      << "outputs differ bitwise";
  ASSERT_EQ(want.tasks.size(), got.tasks.size());
  for (std::size_t t = 0; t < want.tasks.size(); ++t) {
    const TaskAccounting& a = want.tasks[t];
    const TaskAccounting& b = got.tasks[t];
    EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes) << "task " << t;
    EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes) << "task " << t;
    EXPECT_EQ(a.flops, b.flops) << "task " << t;
    EXPECT_EQ(a.memory_used, b.memory_used) << "task " << t;
    EXPECT_EQ(a.memory_peak, b.memory_peak) << "task " << t;
  }
}

/// Runs the CFO's k-groups on a 4-thread global pool, restoring the
/// previous pool size afterwards.
class CuboidFusedOperatorKGroupTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    previous_ = GlobalParallelism();
    SetGlobalThreadPoolThreads(4);
  }
  void TearDown() override { SetGlobalThreadPoolThreads(previous_); }

 private:
  int previous_ = 1;
};

TEST_P(CuboidFusedOperatorKGroupTest, GroupsAreThreadCountInvariant) {
  // K spans 5 blocks, so R = 4 slices it unevenly and W = 3 leaves a
  // short last group.  A sparse X makes phase 1 a masked evaluation; a
  // dense X leaves no sparse driver.
  const bool masked = GetParam();
  NmfCase c(26, 22, 40, masked ? 0.1 : 1.0);
  for (Cuboid cb : {Cuboid{1, 1, 4, 1}, Cuboid{1, 1, 4, 2},
                    Cuboid{1, 1, 4, 3}, Cuboid{1, 1, 4, 4},
                    Cuboid{2, 1, 2, 1}, Cuboid{2, 1, 2, 2},
                    Cuboid{1, 2, 2, 1}, Cuboid{1, 2, 2, 2}}) {
    SCOPED_TRACE(cb.ToString());
    const CfoRun serial = RunCfo(&c, cb, 1);
    EXPECT_LE(DenseMatrix::MaxAbsDiff(serial.out, c.expected), 1e-9);
    for (int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectSameRun(serial, RunCfo(&c, cb, threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DriverKinds, CuboidFusedOperatorKGroupTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Masked" : "Dense";
                         });

TEST_F(CuboidFusedOperatorKGroupTest,
       EachGroupRecordsASpanOnANamedThread) {
  NmfCase c(26, 22, 40, 0.1);
  ClusterConfig config = TestCluster();
  config.local_threads = 4;
  StageContext ctx("cfo-trace", config);
  Tracer tracer;
  ctx.set_tracer(&tracer);
  auto result = CuboidFusedOperator::Execute(c.Plan(), Cuboid{1, 1, 4},
                                             c.bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::map<int, std::string> names = tracer.thread_names();
  std::set<std::string> groups;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.name.rfind("phase1 k-group ", 0) != 0) continue;
    EXPECT_EQ(span.category, "phase");
    groups.insert(span.name);
    auto name = names.find(span.tid);
    ASSERT_NE(name, names.end()) << span.name << " ran on an unnamed thread";
    EXPECT_TRUE(name->second == "driver" || name->second == "pool-worker")
        << name->second;
  }
  EXPECT_EQ(groups, (std::set<std::string>{
                        "phase1 k-group (0,0,0)", "phase1 k-group (0,0,1)",
                        "phase1 k-group (0,0,2)", "phase1 k-group (0,0,3)"}));
}

TEST(BroadcastFusedOperatorTest, MatchesReference) {
  NmfCase c(26, 22, 10, 0.1);
  PartialPlan plan = c.Plan();
  StageContext ctx("bfo", TestCluster());
  auto result =
      BroadcastFusedOperator::Execute(plan, c.bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(
      DenseMatrix::MaxAbsDiff(result->blocks().ToDense(), c.expected),
      1e-9);
  // Sides (U, V, and X here is main) are broadcast: consolidation exceeds
  // the sum of the side sizes.
  StageStats stats = ctx.Finalize();
  EXPECT_GT(stats.consolidation_bytes, 0);
}

TEST(BroadcastFusedOperatorTest, OomWhenSidesExceedBudget) {
  NmfCase c(26, 22, 18, 1.0);
  PartialPlan plan = c.Plan();
  // Budget below |U| + |V|.
  StageContext ctx("bfo", TestCluster(/*budget_bytes=*/4096));
  auto result =
      BroadcastFusedOperator::Execute(plan, c.bound.Inputs(6), &ctx);
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(BroadcastFusedOperatorTest, SideMatricesReplicatePerTask) {
  // Consolidation = |main| + num_tasks · Σ|sides| (paper Table 1, BFO row).
  NmfCase c(26, 22, 10, 0.1);
  PartialPlan plan = c.Plan();
  StageContext ctx("bfo", TestCluster());
  auto result =
      BroadcastFusedOperator::Execute(plan, c.bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok());
  StageStats stats = ctx.Finalize();
  const std::int64_t side_bytes =
      c.bound.blocked[c.q.U].SizeBytes() + c.bound.blocked[c.q.V].SizeBytes();
  const std::int64_t main_bytes = c.bound.blocked[c.q.X].SizeBytes();
  EXPECT_GE(stats.consolidation_bytes, stats.num_tasks * side_bytes);
  EXPECT_LE(stats.consolidation_bytes,
            stats.num_tasks * side_bytes + main_bytes);
}

TEST(BroadcastFusedOperatorTest, AggregationRoot) {
  AlsLossQuery q = BuildAlsLoss(24, 20, 10, /*x_nnz=*/48);
  Bound bound;
  bound.BindSparse(q.X, RandomSparse(24, 20, 0.1, /*seed=*/41, 1.0, 2.0));
  bound.Bind(q.U, RandomDense(24, 10, /*seed=*/42, 0.1, 0.9));
  bound.Bind(q.V, RandomDense(10, 20, /*seed=*/43, 0.1, 0.9));
  auto expected = ReferenceEval(q.dag, q.loss, bound.dense);
  ASSERT_TRUE(expected.ok());
  PartialPlan plan(&q.dag, {q.mm, q.mask, q.sub, q.sq, q.mul, q.loss},
                   q.loss);
  StageContext ctx("bfo-agg", TestCluster());
  auto result = BroadcastFusedOperator::Execute(plan, bound.Inputs(6), &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->blocks().ToDense()(0, 0), (*expected)(0, 0), 1e-8);
}

}  // namespace
}  // namespace fuseme
