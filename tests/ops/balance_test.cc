// Sparsity-aware load balancing (the paper's §8 future-work extension):
// with a skewed mask, weighted cuboid splits must even out per-task work
// without changing the result.

#include <algorithm>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "engine/engine.h"
#include "ops/fused_operator.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.tasks_per_node = 2;
  config.block_size = kBs;
  config.task_memory_budget = 1LL << 40;
  return config;
}

/// X with all non-zeros crowded into the top-left quarter: a worst case
/// for uniform range splits.
SparseMatrix SkewedMask(std::int64_t n, double density,
                        std::uint64_t seed) {
  SparseMatrix dense_corner =
      RandomSparse(n / 2, n / 2, density * 4, seed, 1.0, 2.0);
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  dense_corner.ForEach([&](std::int64_t i, std::int64_t j, double v) {
    triplets.emplace_back(i, j, v);
  });
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

struct RunStats {
  DenseMatrix result;
  std::int64_t max_task_flops = 0;
  std::int64_t total_flops = 0;
  int tasks = 0;
};

RunStats RunWith(bool balance) {
  const std::int64_t n = 64, k = 10;
  NmfPattern q = BuildNmfPattern(n, n, k, n * n / 20);
  SparseMatrix x = SkewedMask(n, 0.05, /*seed=*/7);
  DenseMatrix u = RandomDense(n, k, 8, 0.5, 1.5);
  DenseMatrix v = RandomDense(n, k, 9, 0.5, 1.5);

  std::map<NodeId, BlockedMatrix> blocked;
  blocked[q.X] = BlockedMatrix::FromSparse(x, kBs);
  blocked[q.U] = BlockedMatrix::FromDense(u, kBs);
  blocked[q.V] = BlockedMatrix::FromDense(v, kBs);
  std::map<NodeId, DistributedMatrix> dist;
  FusedInputs inputs;
  for (auto& [id, m] : blocked) {
    dist.emplace(id,
                 DistributedMatrix::Create(m, PartitionScheme::kGrid, 4));
  }
  for (auto& [id, dm] : dist) inputs[id] = &dm;

  PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  StageContext ctx("balance", TestCluster());
  CuboidOptions options;
  options.balance_sparsity = balance;
  auto result = CuboidFusedOperator::Execute(plan, Cuboid{4, 2, 1}, inputs,
                                             &ctx, options);
  FUSEME_CHECK(result.ok()) << result.status();
  RunStats stats;
  stats.result = result->blocks().ToDense();
  stats.tasks = ctx.num_tasks();
  for (int t = 0; t < ctx.num_tasks(); ++t) {
    stats.max_task_flops =
        std::max(stats.max_task_flops, ctx.task(t).flops);
    stats.total_flops += ctx.task(t).flops;
  }
  return stats;
}

TEST(BalanceTest, WeightedSplitEvensOutSkewedWork) {
  RunStats uniform = RunWith(false);
  RunStats balanced = RunWith(true);
  // Same numbers either way.
  EXPECT_LE(DenseMatrix::MaxAbsDiff(uniform.result, balanced.result),
            1e-12);
  // Comparable total work, but a much lower per-task peak: the straggler
  // task shrinks.
  EXPECT_LT(balanced.max_task_flops, uniform.max_task_flops);
  const double uniform_skew =
      static_cast<double>(uniform.max_task_flops) * uniform.tasks /
      static_cast<double>(uniform.total_flops);
  const double balanced_skew =
      static_cast<double>(balanced.max_task_flops) * balanced.tasks /
      static_cast<double>(balanced.total_flops);
  EXPECT_LT(balanced_skew, uniform_skew);
}

TEST(BalanceTest, UniformMaskIsUnaffected) {
  // On a uniform mask the weighted split degenerates to ~the uniform one;
  // results stay identical.
  const std::int64_t n = 48, k = 6;
  NmfPattern q = BuildNmfPattern(n, n, k, n * n / 10);
  SparseMatrix x = RandomSparse(n, n, 0.1, 11, 1.0, 2.0);
  std::map<NodeId, BlockedMatrix> blocked;
  blocked[q.X] = BlockedMatrix::FromSparse(x, kBs);
  blocked[q.U] = BlockedMatrix::FromDense(RandomDense(n, k, 12), kBs);
  blocked[q.V] = BlockedMatrix::FromDense(RandomDense(n, k, 13), kBs);
  std::map<NodeId, DistributedMatrix> dist;
  FusedInputs inputs;
  for (auto& [id, m] : blocked) {
    dist.emplace(id,
                 DistributedMatrix::Create(m, PartitionScheme::kGrid, 4));
  }
  for (auto& [id, dm] : dist) inputs[id] = &dm;
  PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  DenseMatrix results[2];
  for (bool balance : {false, true}) {
    StageContext ctx("uniform", TestCluster());
    CuboidOptions options;
    options.balance_sparsity = balance;
    auto result = CuboidFusedOperator::Execute(plan, Cuboid{3, 2, 1},
                                               inputs, &ctx, options);
    ASSERT_TRUE(result.ok());
    results[balance ? 1 : 0] = result->blocks().ToDense();
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(results[0], results[1]), 1e-12);
}

TEST(BalanceTest, EngineOptionPlumbsThrough) {
  const std::int64_t n = 64, k = 10;
  NmfPattern q = BuildNmfPattern(n, n, k, n * n / 20);
  SparseMatrix x = SkewedMask(n, 0.05, 17);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(n, k, 18), kBs);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(n, k, 19), kBs);
  auto expected =
      ReferenceEval(q.dag, q.mul,
                    {{q.X, x.ToDense()},
                     {q.U, RandomDense(n, k, 18)},
                     {q.V, RandomDense(n, k, 19)}});
  ASSERT_TRUE(expected.ok());
  EngineOptions options;
  options.cluster = TestCluster();
  options.balance_sparsity = true;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                run.outputs.at(q.mul).blocks().ToDense(), *expected),
            1e-9);
}

}  // namespace
}  // namespace fuseme
