#include "workloads/autoencoder.h"

#include <cmath>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

TEST(AutoEncoderTest, ShapesAndOutputs) {
  AutoEncoderQuery q = BuildAutoEncoder(/*batch=*/64, /*features=*/100,
                                        /*h1=*/20, /*h2=*/4);
  EXPECT_EQ(q.dag.node(q.Xhat).rows, 64);
  EXPECT_EQ(q.dag.node(q.Xhat).cols, 100);
  EXPECT_EQ(q.dag.node(q.loss).rows, 1);
  EXPECT_EQ(q.dag.node(q.gW1).rows, 20);
  EXPECT_EQ(q.dag.node(q.gW1).cols, 100);
  EXPECT_EQ(q.dag.node(q.gW2).rows, 4);
  EXPECT_EQ(q.dag.node(q.gW2).cols, 20);
  EXPECT_EQ(q.dag.node(q.gW3).rows, 20);
  EXPECT_EQ(q.dag.node(q.gW3).cols, 4);
  EXPECT_EQ(q.dag.node(q.gW4).rows, 100);
  EXPECT_EQ(q.dag.node(q.gW4).cols, 20);
  EXPECT_EQ(q.dag.outputs().size(), 5u);  // loss + four gradients
}

TEST(AutoEncoderTest, GradientMatchesFiniteDifference) {
  // Check dloss/dW2[0][0] against a central finite difference.
  const std::int64_t batch = 6, features = 8, h1 = 4, h2 = 2;
  AutoEncoderQuery q = BuildAutoEncoder(batch, features, h1, h2);
  DenseMatrix x = RandomDense(batch, features, /*seed=*/101, 0.0, 1.0);
  DenseMatrix w1 = RandomDense(h1, features, /*seed=*/102, -0.5, 0.5);
  DenseMatrix w2 = RandomDense(h2, h1, /*seed=*/103, -0.5, 0.5);
  DenseMatrix w3 = RandomDense(h1, h2, /*seed=*/104, -0.5, 0.5);
  DenseMatrix w4 = RandomDense(features, h1, /*seed=*/105, -0.5, 0.5);

  auto bind = [&](const DenseMatrix& w2v) {
    return std::map<NodeId, DenseMatrix>{
        {q.X, x}, {q.W1, w1}, {q.W2, w2v}, {q.W3, w3}, {q.W4, w4}};
  };
  DenseMatrix grad = *ReferenceEval(q.dag, q.gW2, bind(w2));

  const double eps = 1e-5;
  DenseMatrix w2_plus = w2, w2_minus = w2;
  w2_plus(0, 0) += eps;
  w2_minus(0, 0) -= eps;
  double loss_plus = (*ReferenceEval(q.dag, q.loss, bind(w2_plus)))(0, 0);
  double loss_minus = (*ReferenceEval(q.dag, q.loss, bind(w2_minus)))(0, 0);
  const double fd = (loss_plus - loss_minus) / (2 * eps);
  // Our gW2 = dloss/dW2 up to the conventional factor 2 from d(e^2)=2e.
  EXPECT_NEAR(2.0 * grad(0, 0), fd, 1e-5 * std::max(1.0, std::fabs(fd)));
}

TEST(AutoEncoderTest, DistributedExecutionMatchesReference) {
  const std::int64_t batch = 16, features = 24, h1 = 10, h2 = 4;
  AutoEncoderQuery q = BuildAutoEncoder(batch, features, h1, h2);
  DenseMatrix x = RandomDense(batch, features, /*seed=*/111, 0.0, 1.0);
  DenseMatrix w1 = RandomDense(h1, features, /*seed=*/112, -0.5, 0.5);
  DenseMatrix w2 = RandomDense(h2, h1, /*seed=*/113, -0.5, 0.5);
  DenseMatrix w3 = RandomDense(h1, h2, /*seed=*/114, -0.5, 0.5);
  DenseMatrix w4 = RandomDense(features, h1, /*seed=*/115, -0.5, 0.5);
  std::map<NodeId, DenseMatrix> dense = {
      {q.X, x}, {q.W1, w1}, {q.W2, w2}, {q.W3, w3}, {q.W4, w4}};

  EngineOptions options;
  options.cluster.block_size = 8;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 2;
  std::map<NodeId, BlockedMatrix> inputs;
  for (const auto& [id, m] : dense) {
    inputs[id] = BlockedMatrix::FromDense(m, 8);
  }
  for (SystemMode mode : {SystemMode::kFuseMe, SystemMode::kTensorFlow,
                          SystemMode::kSystemDs}) {
    options.system = mode;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, inputs);
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << ": " << run.report.status;
    for (NodeId out : {q.loss, q.gW1, q.gW2, q.gW3, q.gW4}) {
      DenseMatrix expected = *ReferenceEval(q.dag, out, dense);
      EXPECT_LE(DenseMatrix::MaxAbsDiff(
                    run.outputs.at(out).blocks().ToDense(), expected),
                1e-8)
          << SystemModeName(mode) << " output v" << out;
    }
  }
}

TEST(AutoEncoderTest, AnalyticPaperScaleRuns) {
  // Fig. 15(a) point: 10K×10K input, h1=500, h2=2.
  AutoEncoderQuery q = BuildAutoEncoder(1024, 10000, 500, 2);
  EngineOptions options;
  options.analytic = true;
  for (SystemMode mode : {SystemMode::kFuseMe, SystemMode::kTensorFlow,
                          SystemMode::kSystemDs}) {
    options.system = mode;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, {});
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << ": " << run.report.status;
    EXPECT_GT(run.report.elapsed_seconds, 0);
  }
}

}  // namespace
}  // namespace fuseme
