// Sparsity-aware kernels vs dense-style execution on fig-14-like cells
// (DESIGN.md section 15).
//
// Four kernel cells at a fixed thread count, each timing the dense-style
// formulation (what a density-oblivious engine executes) against the
// CSR-direct kernel on the same operands:
//
//   spmm           sparse×dense matmul vs densified GEMM (~1% density)
//   sddmm          masked dot products vs full GEMM + mask gather
//   ewise_mul      both-sparse element-wise multiply: merge-join vs the
//                  per-entry At() binary-search loop (0.1% density)
//   transpose_spmm fused aᵀ·b vs materialize-transpose-then-SpMM
//
// A final engine-level cell runs a real-mode sparse NMF stage (the
// FindSparseDriver hot path) and checks the cost model's prediction stays
// within a factor of 2 of the measured stage accounting.
//
// Exits non-zero when fewer than two kernel cells show a speedup > 1.0 or
// the prediction check fails — scripts/run_bench_smoke.sh and check.sh
// treat that as a regression.
//
// Environment overrides for quick smoke runs:
//   FUSEME_BENCH_SPARSE_N   base matrix dimension (default 1536)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/generators.h"
#include "matrix/sparse_kernels.h"
#include "telemetry/metrics.h"
#include "telemetry/prediction.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

std::vector<BenchRecord> g_records;
MetricsRegistry g_metrics;
int g_speedup_cells = 0;

template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void RecordCell(const std::string& cell, double dense_seconds,
                double sparse_seconds, std::int64_t dense_flops,
                std::int64_t sparse_flops,
                std::vector<std::pair<std::string, std::string>> config) {
  const double speedup = dense_seconds / sparse_seconds;
  if (speedup > 1.0) ++g_speedup_cells;
  std::printf("%-16s dense-style %.4fs   sparsity-aware %.4fs   speedup %.2fx\n",
              cell.c_str(), dense_seconds, sparse_seconds, speedup);

  BenchRecord dense;
  dense.name = cell + "_dense_style";
  dense.config = config;
  dense.elapsed_seconds = dense_seconds;
  dense.flops = dense_flops;
  g_records.push_back(std::move(dense));

  BenchRecord sparse;
  sparse.name = cell + "_sparsity_aware";
  sparse.config = std::move(config);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", speedup);
  sparse.config.emplace_back("speedup", buf);
  sparse.elapsed_seconds = sparse_seconds;
  sparse.flops = sparse_flops;
  g_records.push_back(std::move(sparse));
}

// fig-14 GNMF hot loop: X(m×k sparse, ~1%) times dense V(k×n).
void RunSpmmCell(std::int64_t n) {
  const std::int64_t cols = 64;
  const double density = 0.01;
  SparseMatrix a = RandomSparse(n, n, density, /*seed=*/1, 0.5, 2.0);
  DenseMatrix ad = a.ToDense();
  DenseMatrix b = RandomDense(n, cols, /*seed=*/2, 0.5, 2.0);
  Block dense_a = Block::FromDense(ad);
  Block dense_b = Block::FromDense(b);

  const double dense_s = BestSeconds(3, [&] {
    auto r = MatMul(dense_a, dense_b);
    if (!r.ok()) std::exit(1);
  });
  const double sparse_s = BestSeconds(3, [&] {
    DenseMatrix acc(n, cols);
    SpmmAccSparseDense(&acc, a, b, nullptr);
  });
  RecordCell("spmm", dense_s, sparse_s, 2 * n * n * cols,
             2 * a.nnz() * cols,
             {{"n", std::to_string(n)},
              {"cols", std::to_string(cols)},
              {"density", "0.01"}});
}

// ALS loss: S ⊙ (A·Bᵀ) evaluated at S's non-zeros only.
void RunSddmmCell(std::int64_t n) {
  const std::int64_t k = 64;
  const double density = 0.01;
  SparseMatrix mask = RandomSparse(n, n, density, /*seed=*/3, 1.0, 2.0);
  DenseMatrix a = RandomDense(n, k, /*seed=*/4, 0.5, 2.0);
  DenseMatrix b = RandomDense(k, n, /*seed=*/5, 0.5, 2.0);
  Block ba = Block::FromDense(a);
  Block bb = Block::FromDense(b);

  const double dense_s = BestSeconds(3, [&] {
    // Dense-style: full product, then gather at the mask's positions.
    auto r = MatMul(ba, bb);
    if (!r.ok()) std::exit(1);
    const DenseMatrix& full = r->dense();
    double sink = 0.0;
    mask.ForEach([&](std::int64_t i, std::int64_t j, double) {
      sink += full(i, j);
    });
    if (sink == 12345.6789) std::printf("|");  // keep the gather alive
  });
  const double sparse_s = BestSeconds(3, [&] {
    std::vector<double> dots(mask.nnz(), 0.0);
    SddmmAcc(mask, ba, bb, &dots, nullptr);
  });
  RecordCell("sddmm", dense_s, sparse_s, 2 * n * n * k,
             2 * mask.nnz() * k,
             {{"n", std::to_string(n)},
              {"k", std::to_string(k)},
              {"density", "0.01"}});
}

// Both-sparse element-wise multiply at 0.1% density: the merge-join vs the
// pre-fix per-entry At() binary-search loop.
void RunEwiseMulCell(std::int64_t n) {
  const std::int64_t dim = n * 2;
  const double density = 0.001;
  SparseMatrix a = RandomSparse(dim, dim, density, /*seed=*/6, 0.5, 2.0);
  SparseMatrix b = RandomSparse(dim, dim, density, /*seed=*/7, 0.5, 2.0);
  const int loops = 50;  // single products are microseconds; time batches

  const double dense_s = BestSeconds(3, [&] {
    for (int l = 0; l < loops; ++l) {
      // The pre-fix formulation: walk a's entries, binary-search b.
      std::vector<std::tuple<std::int64_t, std::int64_t, double>> t;
      a.ForEach([&](std::int64_t i, std::int64_t j, double v) {
        const double other = b.At(i, j);
        if (v * other != 0.0) t.emplace_back(i, j, v * other);
      });
      SparseMatrix out = SparseMatrix::FromTriplets(dim, dim, std::move(t));
      if (out.nnz() < 0) std::exit(1);
    }
  });
  const double sparse_s = BestSeconds(3, [&] {
    for (int l = 0; l < loops; ++l) {
      SparseMatrix out = EwiseMulMergeJoin(a, b, nullptr);
      if (out.nnz() < 0) std::exit(1);
    }
  });
  RecordCell("ewise_mul", dense_s, sparse_s, loops * a.nnz(),
             loops * std::min(a.nnz(), b.nnz()),
             {{"n", std::to_string(dim)}, {"density", "0.001"}});
}

// aᵀ·b with a stored untransposed: fused kernel vs materialize-then-SpMM.
void RunTransposeSpmmCell(std::int64_t n) {
  const std::int64_t cols = 64;
  const double density = 0.01;
  SparseMatrix a = RandomSparse(n, n, density, /*seed=*/8, 0.5, 2.0);
  DenseMatrix b = RandomDense(n, cols, /*seed=*/9, 0.5, 2.0);
  Block bb = Block::FromDense(b);

  const double dense_s = BestSeconds(3, [&] {
    SparseMatrix at = a.Transposed();
    DenseMatrix acc(n, cols);
    SpmmAccSparseDense(&acc, at, b, nullptr);
  });
  const double sparse_s = BestSeconds(3, [&] {
    DenseMatrix acc(n, cols);
    TransposeSpmmAcc(&acc, a, bb, nullptr);
  });
  RecordCell("transpose_spmm", dense_s, sparse_s, 2 * a.nnz() * cols,
             2 * a.nnz() * cols,
             {{"n", std::to_string(n)},
              {"cols", std::to_string(cols)},
              {"density", "0.01"}});
}

// Real-mode sparse NMF stage: the prediction the optimizer rode on must
// stay within a factor of 2 of the measured accounting.
bool RunPredictionCell(std::int64_t n) {
  const std::int64_t dim = std::max<std::int64_t>(256, n / 4);
  NmfPattern q = BuildNmfPattern(
      dim, dim, 32,
      static_cast<std::int64_t>(static_cast<double>(dim) * dim * 0.01));
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(dim, dim, 0.01, /*seed=*/10, 1.0, 2.0), 64);
  inputs[q.U] = BlockedMatrix::FromDense(
      RandomDense(dim, 32, /*seed=*/11, 0.5, 1.5), 64);
  inputs[q.V] = BlockedMatrix::FromDense(
      RandomDense(dim, 32, /*seed=*/12, 0.5, 1.5), 64);

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.block_size = 64;
  options.metrics = &g_metrics;
  const Engine engine = CreateEngine(options);
  auto run = CompileAndExecute(engine, q.dag, full, inputs, OperatorKind::kCfo);
  if (!run.report.ok()) {
    std::fprintf(stderr, "prediction cell failed: %s\n",
                 run.report.status.ToString().c_str());
    return false;
  }
  PredictionReport report = BuildPredictionReport(run.report.telemetry);
  const bool ok = report.WithinFactor(2.0);
  std::printf("%-16s worst |log2(actual/predicted)| = %.3f  (%s)\n",
              "prediction", report.max_abs_log2,
              ok ? "within 2x" : "OUT OF RANGE");
  BenchRecord r = RecordFor("sparse_stage_prediction", run.report,
                            {{"n", std::to_string(dim)},
                             {"density", "0.01"},
                             {"within_2x", ok ? "true" : "false"}});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", report.max_abs_log2);
  r.config.emplace_back("max_abs_log2", buf);
  g_records.push_back(std::move(r));
  return ok;
}

}  // namespace

int main() {
  std::int64_t n = 1536;
  if (const char* env = std::getenv("FUSEME_BENCH_SPARSE_N")) {
    n = std::max<std::int64_t>(256, std::atoll(env));
  }
  // Fixed pool size so dense-style and sparsity-aware runs see identical
  // parallelism regardless of the host's core count.
  SetGlobalThreadPoolThreads(8);

  std::printf(
      "=== Sparsity-aware kernels vs dense-style execution (n=%lld, 8 "
      "threads) ===\n\n",
      static_cast<long long>(n));
  RunSpmmCell(n);
  RunSddmmCell(n);
  RunEwiseMulCell(n);
  RunTransposeSpmmCell(n);
  const bool prediction_ok = RunPredictionCell(n);

  if (!WriteBenchJson("sparse", g_records, g_metrics.Snapshot().ToJson())) {
    return 1;
  }

  if (g_speedup_cells < 2) {
    std::fprintf(stderr,
                 "FAIL: only %d cell(s) show a sparsity-aware speedup > 1.0 "
                 "(need >= 2)\n",
                 g_speedup_cells);
    return 1;
  }
  if (!prediction_ok) {
    std::fprintf(stderr,
                 "FAIL: sparse-stage prediction outside factor-of-2\n");
    return 1;
  }
  return 0;
}
