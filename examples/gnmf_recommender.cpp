// GNMF recommender (paper §6.4): factorize a sparse rating matrix X into
// V·U with Gaussian NMF multiplicative updates (Eq. 6), running every
// iteration through the FuseME engine, then use the factors to recommend.
//
//   $ ./build/examples/gnmf_recommender

#include <cstdio>
#include <vector>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

namespace {

double ReconstructionError(const DenseMatrix& x, const DenseMatrix& v,
                           const DenseMatrix& u) {
  double err = 0;
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    for (std::int64_t j = 0; j < x.cols(); ++j) {
      if (x(i, j) == 0.0) continue;  // score observed ratings only
      double dot = 0;
      for (std::int64_t k = 0; k < v.cols(); ++k) dot += v(i, k) * u(k, j);
      err += (x(i, j) - dot) * (x(i, j) - dot);
    }
  }
  return err;
}

}  // namespace

int main() {
  const std::int64_t users = 120, items = 90, factors = 8, block = 16;
  const int iterations = 8;

  // Synthetic ratings: ~8% of the user-item pairs rated 1..5.
  SparseMatrix ratings =
      RandomSparse(users, items, 0.08, /*seed=*/7, 1.0, 5.0);
  DenseMatrix x = ratings.ToDense();
  DenseMatrix v = RandomDense(users, factors, /*seed=*/8, 0.1, 1.0);
  DenseMatrix u = RandomDense(factors, items, /*seed=*/9, 0.1, 1.0);

  GnmfQuery q = BuildGnmf(users, items, factors, ratings.nnz());

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 4;
  options.cluster.tasks_per_node = 4;
  options.cluster.block_size = block;
  Result<Engine> engine = Engine::Create(options);
  if (!engine.ok()) {
    std::printf("engine rejected: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  // One compile serves every iteration: only U and V change.
  Result<CompiledPlan> plan = engine->Compile(q.dag);
  if (!plan.ok()) {
    std::printf("compile failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  std::printf("GNMF on %lldx%lld ratings (nnz=%lld), k=%lld\n",
              static_cast<long long>(users), static_cast<long long>(items),
              static_cast<long long>(ratings.nnz()),
              static_cast<long long>(factors));
  std::printf("%-5s %-14s %-24s\n", "iter", "squared error",
              "engine summary");

  double accumulated = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    // Gauss-Seidel style: update U first, then V against the new U (the
    // simultaneous form of Eq. 6 is not monotone on every dataset).
    std::string summary;
    for (NodeId target : {q.a5, q.b5}) {
      std::map<NodeId, BlockedMatrix> inputs;
      inputs[q.X] = BlockedMatrix::FromSparse(ratings, block);
      inputs[q.V] = BlockedMatrix::FromDense(v, block);
      inputs[q.U] = BlockedMatrix::FromDense(u, block);
      Engine::RunResult run = engine->Execute(*plan, inputs);
      if (!run.report.ok()) {
        std::printf("iteration %d failed: %s\n", iter,
                    run.report.Summary().c_str());
        return 1;
      }
      if (target == q.a5) {
        u = run.outputs.at(q.a5).blocks().ToDense();
      } else {
        v = run.outputs.at(q.b5).blocks().ToDense();
      }
      accumulated += run.report.elapsed_seconds;
      summary = run.report.Summary();
    }
    std::printf("%-5d %-14.2f %s\n", iter + 1, ReconstructionError(x, v, u),
                summary.c_str());
  }
  std::printf("\naccumulated modeled time over %d iterations: %.2f sec\n",
              iterations, accumulated);

  // Recommend: the highest predicted unrated item for user 0.
  std::int64_t best_item = -1;
  double best_score = -1;
  for (std::int64_t j = 0; j < items; ++j) {
    if (x(0, j) != 0.0) continue;
    double score = 0;
    for (std::int64_t k = 0; k < factors; ++k) score += v(0, k) * u(k, j);
    if (score > best_score) {
      best_score = score;
      best_item = j;
    }
  }
  std::printf("recommendation for user 0: item %lld (predicted %.2f)\n",
              static_cast<long long>(best_item), best_score);
  return 0;
}
