// AutoEncoder training (paper §6.5): run mini-batch gradient descent where
// every step — forward, loss, backward — is one engine execution of the
// fused DAG.  The reconstruction loss should fall steadily.
//
//   $ ./build/examples/autoencoder_training

#include <cstdio>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

namespace {

void ApplyGradient(DenseMatrix* w, const DenseMatrix& grad, double lr) {
  for (std::int64_t i = 0; i < w->size(); ++i) {
    w->data()[i] -= lr * grad.data()[i];
  }
}

}  // namespace

int main() {
  const std::int64_t batch = 32, features = 48, h1 = 16, h2 = 4;
  const std::int64_t block = 16;
  const int steps = 12;
  const double lr = 0.5;

  AutoEncoderQuery q = BuildAutoEncoder(batch, features, h1, h2);
  DenseMatrix w1 = RandomDense(h1, features, /*seed=*/21, -0.3, 0.3);
  DenseMatrix w2 = RandomDense(h2, h1, /*seed=*/22, -0.3, 0.3);
  DenseMatrix w3 = RandomDense(h1, h2, /*seed=*/23, -0.3, 0.3);
  DenseMatrix w4 = RandomDense(features, h1, /*seed=*/24, -0.3, 0.3);

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 4;
  options.cluster.block_size = block;
  Result<Engine> engine = Engine::Create(options);
  if (!engine.ok()) {
    std::printf("engine rejected: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // One compile serves every training step: only the inputs change.
  Result<CompiledPlan> plan = engine->Compile(q.dag);
  if (!plan.ok()) {
    std::printf("compile failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  std::printf("training a %lld-%lld-%lld-%lld-%lld autoencoder, batch %lld\n",
              static_cast<long long>(features), static_cast<long long>(h1),
              static_cast<long long>(h2), static_cast<long long>(h1),
              static_cast<long long>(features),
              static_cast<long long>(batch));
  std::printf("%-6s %-12s %s\n", "step", "loss", "modeled step time");

  for (int step = 0; step < steps; ++step) {
    DenseMatrix x =
        RandomDense(batch, features, /*seed=*/100 + step, 0.0, 1.0);
    std::map<NodeId, BlockedMatrix> inputs;
    inputs[q.X] = BlockedMatrix::FromDense(x, block);
    inputs[q.W1] = BlockedMatrix::FromDense(w1, block);
    inputs[q.W2] = BlockedMatrix::FromDense(w2, block);
    inputs[q.W3] = BlockedMatrix::FromDense(w3, block);
    inputs[q.W4] = BlockedMatrix::FromDense(w4, block);

    Engine::RunResult run = engine->Execute(*plan, inputs);
    if (!run.report.ok()) {
      std::printf("step %d failed: %s\n", step, run.report.Summary().c_str());
      return 1;
    }
    const double loss = run.outputs.at(q.loss).blocks().ToDense()(0, 0);
    ApplyGradient(&w1, run.outputs.at(q.gW1).blocks().ToDense(), lr);
    ApplyGradient(&w2, run.outputs.at(q.gW2).blocks().ToDense(), lr);
    ApplyGradient(&w3, run.outputs.at(q.gW3).blocks().ToDense(), lr);
    ApplyGradient(&w4, run.outputs.at(q.gW4).blocks().ToDense(), lr);
    std::printf("%-6d %-12.4f %.3f sec\n", step + 1, loss,
                run.report.elapsed_seconds);
  }
  return 0;
}
