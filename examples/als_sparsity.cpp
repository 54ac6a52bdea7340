// Sparsity exploitation on the ALS weighted squared loss (paper Fig. 1(a)):
//   loss = sum((X != 0) * (X - U×V)^2)
// The fused operator evaluates the U×V product only at X's non-zeros.
// This example measures the effect directly: the same loss computed by the
// FuseME engine (masked evaluation) versus an unfused operator-at-a-time
// engine (dense evaluation).
//
//   $ ./build/examples/als_sparsity

#include <cstdio>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

int main() {
  const std::int64_t m = 160, n = 160, k = 12, block = 16;
  const double density = 0.02;

  AlsLossQuery q = BuildAlsLoss(
      m, n, k, static_cast<std::int64_t>(density * m * n));
  SparseMatrix x = RandomSparse(m, n, density, /*seed=*/10, 1.0, 5.0);
  DenseMatrix u = RandomDense(m, k, /*seed=*/11, 0.1, 0.8);
  DenseMatrix v = RandomDense(k, n, /*seed=*/12, 0.1, 0.8);

  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, block);
  inputs[q.U] = BlockedMatrix::FromDense(u, block);
  inputs[q.V] = BlockedMatrix::FromDense(v, block);

  double expected = (*ReferenceEval(
      q.dag, q.loss, {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}}))(0, 0);

  EngineOptions options;
  options.cluster.num_nodes = 4;
  options.cluster.tasks_per_node = 4;
  options.cluster.block_size = block;

  std::printf("weighted squared loss, X %lldx%lld at density %.3f\n\n",
              static_cast<long long>(m), static_cast<long long>(n), density);
  std::printf("%-10s %-14s %-14s %-14s %s\n", "system", "loss", "flops",
              "shuffled", "plan");
  for (SystemMode mode : {SystemMode::kFuseMe, SystemMode::kDistMe}) {
    options.system = mode;
    Result<Engine> engine = Engine::Create(options);
    if (!engine.ok()) {
      std::printf("engine rejected: %s\n",
                  engine.status().ToString().c_str());
      return 1;
    }
    Result<CompiledPlan> plan = engine->Compile(q.dag);
    if (!plan.ok()) {
      std::printf("compile failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    Engine::RunResult run = engine->Execute(*plan, inputs);
    if (!run.report.ok()) {
      std::printf("%-10s failed: %s\n", SystemModeName(mode).data(),
                  run.report.Summary().c_str());
      continue;
    }
    double loss = run.outputs.at(q.loss).blocks().ToDense()(0, 0);
    std::printf("%-10s %-14.4f %-14lld %-14s %zu stage(s)\n",
                SystemModeName(mode).data(), loss,
                static_cast<long long>(run.report.flops),
                HumanBytes(static_cast<double>(run.report.total_bytes()))
                    .c_str(),
                run.report.stages.size());
    if (std::abs(loss - expected) > 1e-6) {
      std::printf("!! mismatch vs reference %.4f\n", expected);
      return 1;
    }
  }
  std::printf(
      "\nFuseME fuses the whole query into one operator and only touches\n"
      "X's non-zeros, so its flop count is a small fraction of the unfused\n"
      "DistME execution, which materializes the dense U×V product.\n");
  return 0;
}
