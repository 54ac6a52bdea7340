#include <cmath>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

TEST(KlLossTest, MatchesHandComputedDivergence) {
  const std::int64_t m = 20, n = 16, k = 4;
  KlLossQuery q = BuildKlLoss(m, n, k, /*x_nnz=*/m * n / 5);
  SparseMatrix x = RandomSparse(m, n, 0.2, /*seed=*/1, 1.0, 3.0);
  DenseMatrix u = RandomDense(m, k, 2, 0.2, 1.0);
  DenseMatrix v = RandomDense(k, n, 3, 0.2, 1.0);
  DenseMatrix xd = x.ToDense();

  auto result =
      ReferenceEval(q.dag, q.loss, {{q.X, xd}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(std::isnan((*result)(0, 0)));

  double expected = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (xd(i, j) == 0.0) continue;
      double uv = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) uv += u(i, kk) * v(kk, j);
      expected += xd(i, j) * std::log(xd(i, j) / uv) - xd(i, j) + uv;
    }
  }
  EXPECT_NEAR((*result)(0, 0), expected, 1e-9);
}

TEST(KlLossTest, ZeroDivergenceAtExactFactorization) {
  const std::int64_t m = 12, n = 10, k = 3;
  DenseMatrix u = RandomDense(m, k, 5, 0.5, 1.0);
  DenseMatrix v = RandomDense(k, n, 6, 0.5, 1.0);
  DenseMatrix x(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double uv = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) uv += u(i, kk) * v(kk, j);
      x(i, j) = uv;  // X == U×V everywhere
    }
  }
  KlLossQuery q = BuildKlLoss(m, n, k, m * n);
  auto loss = ReferenceEval(q.dag, q.loss, {{q.X, x}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(loss.ok());
  EXPECT_NEAR((*loss)(0, 0), 0.0, 1e-10);
}

TEST(KlLossTest, AllSystemsAgree) {
  const std::int64_t m = 24, n = 16, k = 4;
  KlLossQuery q = BuildKlLoss(m, n, k, m * n / 5);
  SparseMatrix x = RandomSparse(m, n, 0.2, /*seed=*/7, 1.0, 3.0);
  DenseMatrix u = RandomDense(m, k, 8, 0.2, 1.0);
  DenseMatrix v = RandomDense(k, n, 9, 0.2, 1.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.loss,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(expected.ok());

  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kDistMe}) {
    options.system = mode;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, inputs);
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << ": " << run.report.status;
    EXPECT_NEAR(run.outputs.at(q.loss).blocks().ToDense()(0, 0),
                (*expected)(0, 0), 1e-8)
        << SystemModeName(mode);
  }
}

}  // namespace
}  // namespace fuseme
