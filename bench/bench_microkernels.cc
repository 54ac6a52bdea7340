// google-benchmark microbenchmarks for the local kernels that all the
// distributed operators bottom out in: block element-wise ops, matrix
// multiplication across representations, and the fused-kernel evaluator's
// masked (sparsity-exploiting) path vs the dense path.
//
// Before the google-benchmark cases, main() runs a serial-vs-parallel GEMM
// suite (the dense kernel at 1 thread vs the machine's parallelism) and
// per-variant suites (each supported ISA's dense GEMM at the workloads'
// shapes, and its two SpMM orientations and dense non-zero count at
// gnmf_step's block shapes), verifies the results are bitwise identical,
// and writes the measurements to BENCH_microkernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/gemm_kernel.h"
#include "matrix/generators.h"
#include "matrix/sparse_kernels.h"
#include "ops/evaluator.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

void BM_EwiseMulDenseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromDense(RandomDense(n, n, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = EwiseBinary(BinaryFn::kMul, a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_EwiseMulDenseDense)->Arg(64)->Arg(256);

void BM_EwiseMulSparseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.01, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = EwiseBinary(BinaryFn::kMul, a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_EwiseMulSparseDense)->Arg(64)->Arg(256);

void BM_MatMulDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromDense(RandomDense(n, n, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = MatMul(a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulDense)->Arg(32)->Arg(128);

void BM_MatMulSparseDense(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.02, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, 1.0, 2.0));
  for (auto _ : state) {
    auto result = MatMul(a, b);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.nnz() * n);
}
BENCHMARK(BM_MatMulSparseDense)->Arg(128)->Arg(256);

void BM_TransposeSparse(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Block a = Block::FromSparse(RandomSparse(n, n, 0.05, 1, 1.0, 2.0));
  for (auto _ : state) {
    auto result = Transpose(a);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TransposeSparse)->Arg(256);

// The fused kernel of Fig. 8 — dense evaluation vs the sparsity-exploiting
// masked path on the same block.
struct EvalSetup {
  NmfPattern q;
  PartialPlan plan;
  std::map<NodeId, BlockedMatrix> data;

  explicit EvalSetup(std::int64_t n, double density)
      : q(BuildNmfPattern(n, n, 64,
                          static_cast<std::int64_t>(density * n * n))),
        plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul) {
    data[q.X] = BlockedMatrix::FromSparse(
        RandomSparse(n, n, density, 1, 1.0, 2.0), n);
    data[q.U] = BlockedMatrix::FromDense(RandomDense(n, 64, 2), n);
    data[q.V] = BlockedMatrix::FromDense(RandomDense(n, 64, 3), n);
  }

  BlockFetcher Fetcher() {
    return [this](NodeId id, std::int64_t bi,
                  std::int64_t bj) -> Result<Block> {
      return data.at(id).block(bi, bj);
    };
  }
};

void BM_FusedKernelDensePath(benchmark::State& state) {
  EvalSetup setup(256, 0.01);
  for (auto _ : state) {
    KernelEvaluator eval(&setup.plan, 256, setup.Fetcher());
    auto result = eval.Eval(setup.q.mul, 0, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FusedKernelDensePath);

void BM_FusedKernelMaskedPath(benchmark::State& state) {
  EvalSetup setup(256, 0.01);
  SparseDriver driver = FindSparseDriver(setup.plan, setup.q.mm);
  for (auto _ : state) {
    KernelEvaluator eval(&setup.plan, 256, setup.Fetcher());
    eval.SetSparseDriver(driver);
    auto result = eval.Eval(setup.q.mul, 0, 0);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FusedKernelMaskedPath);

// --- Serial vs parallel tiled GEMM (the ISSUE acceptance measurement). ---

double TimeGemmSeconds(const Block& a, const Block& b, Block* out) {
  // Best of 3 runs, to shave scheduler noise.
  double best = 1e30;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    auto result = MatMul(a, b);
    const auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "GEMM failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    *out = std::move(*result);
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void RunGemmSpeedupSuite(std::vector<bench::BenchRecord>* records,
                         MetricsRegistry* metrics) {
  // FUSEME_BENCH_GEMM_N overrides the block size (quick local runs).
  std::int64_t n = 2048;
  if (const char* env = std::getenv("FUSEME_BENCH_GEMM_N")) {
    n = std::max<std::int64_t>(1, std::atoll(env));
  }
  const int machine = GlobalParallelism();
  std::printf("--- dense %lldx%lld block GEMM, 1 thread vs %d ---\n",
              static_cast<long long>(n), static_cast<long long>(n), machine);

  Block a = Block::FromDense(RandomDense(n, n, 1, -1.0, 1.0));
  Block b = Block::FromDense(RandomDense(n, n, 2, -1.0, 1.0));
  const std::int64_t flops = 2 * n * n * n;
  const std::int64_t bytes = 3 * n * n * 8;

  Block serial_out, parallel_out;
  SetGlobalThreadPoolThreads(1);
  const double serial = TimeGemmSeconds(a, b, &serial_out);
  SetGlobalThreadPoolThreads(machine);
  const double parallel = TimeGemmSeconds(a, b, &parallel_out);

  const DenseMatrix serial_dense = serial_out.ToDense();
  const DenseMatrix parallel_dense = parallel_out.ToDense();
  if (std::memcmp(serial_dense.data(), parallel_dense.data(),
                  sizeof(double) * serial_dense.size()) != 0) {
    std::fprintf(stderr, "FAIL: parallel GEMM result differs from serial\n");
    std::exit(1);
  }

  std::printf(
      "serial  %.3fs (%.2f GFLOP/s)\nparallel %.3fs (%.2f GFLOP/s)\n"
      "speedup %.2fx at %d threads (results bitwise identical)\n\n",
      serial, static_cast<double>(flops) / serial / 1e9, parallel,
      static_cast<double>(flops) / parallel / 1e9, serial / parallel,
      machine);

  // Mirror the measurements into the registry so BENCH_microkernels.json
  // carries a metrics snapshot alongside the records.
  for (const auto& [threads, seconds] :
       {std::pair<int, double>{1, serial}, {machine, parallel}}) {
    const MetricLabels labels = {{"threads", std::to_string(threads)}};
    metrics->GetCounter(metric_names::kKernelGemmFlops, labels)->Add(flops);
    metrics->GetCounter(metric_names::kKernelFlops, labels)->Add(flops);
    metrics
        ->GetHistogram("fuseme_bench_gemm_seconds", DefaultTimeBoundaries(),
                       labels)
        ->Observe(seconds);
    metrics->GetGauge("fuseme_bench_gemm_gflops", labels)
        ->Set(static_cast<double>(flops) / seconds / 1e9);
  }

  const std::string size = std::to_string(n);
  records->push_back({"dense_gemm",
                      {{"n", size}, {"threads", "1"}},
                      serial,
                      bytes,
                      flops});
  records->push_back({"dense_gemm",
                      {{"n", size}, {"threads", std::to_string(machine)}},
                      parallel,
                      bytes,
                      flops});
  bench::BenchRecord speedup{"dense_gemm_speedup",
                             {{"n", size},
                              {"threads", std::to_string(machine)},
                              {"speedup", [&] {
                                 char buf[32];
                                 std::snprintf(buf, sizeof(buf), "%.3f",
                                               serial / parallel);
                                 return std::string(buf);
                               }()}},
                             parallel,
                             bytes,
                             flops};
  records->push_back(std::move(speedup));
}

// --- Per-variant dense GEMM kernels at the workloads' shapes. ---
//
// Each supported variant (gemm_kernel.h) runs single-threaded on the
// products ae_step and gnmf_step issue (m×k×n; 16 is the autoencoder's
// hidden width).  Every variant's output must equal the portable loop's
// bit for bit; the suite exits non-zero otherwise.

double TimeVariantSeconds(GemmVariant variant, const DenseMatrix& a,
                          const DenseMatrix& b, DenseMatrix* out) {
  // Best of enough repetitions to cover ~20 ms, to shave scheduler noise.
  const std::int64_t flops = 2 * a.rows() * a.cols() * b.cols();
  const int reps = static_cast<int>(
      std::clamp<std::int64_t>((std::int64_t{1} << 26) / flops, 3, 200));
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    DenseMatrix acc(a.rows(), b.cols());
    const auto t0 = std::chrono::steady_clock::now();
    DenseGemmAcc(variant, &acc, a, b);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(acc.data());
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    *out = std::move(acc);
  }
  return best;
}

void RunGemmVariantSuite(std::vector<bench::BenchRecord>* records) {
  struct Shape {
    std::int64_t m, k, n;
  };
  const Shape shapes[] = {
      {256, 256, 256}, {256, 256, 16}, {256, 16, 256},
      {512, 512, 128}, {128, 512, 128},
  };
  const int machine = GlobalParallelism();
  SetGlobalThreadPoolThreads(1);
  std::printf("--- dense GEMM per kernel variant, 1 thread (GFLOP/s) ---\n");
  std::printf("%-14s", "m x k x n");
  for (GemmVariant variant : SupportedGemmVariants()) {
    std::printf(" %10s", GemmVariantName(variant));
  }
  std::printf("\n");
  std::uint64_t seed = 11;
  for (const Shape& s : shapes) {
    const DenseMatrix a = RandomDense(s.m, s.k, ++seed, -1.0, 1.0);
    const DenseMatrix b = RandomDense(s.k, s.n, ++seed, -1.0, 1.0);
    const std::int64_t flops = 2 * s.m * s.k * s.n;
    const std::int64_t bytes = 8 * (s.m * s.k + s.k * s.n + 2 * s.m * s.n);
    const std::string shape = std::to_string(s.m) + "x" +
                              std::to_string(s.k) + "x" + std::to_string(s.n);
    std::printf("%-14s", shape.c_str());
    DenseMatrix reference;
    for (GemmVariant variant : SupportedGemmVariants()) {
      DenseMatrix out;
      const double seconds = TimeVariantSeconds(variant, a, b, &out);
      if (variant == GemmVariant::kPortable) {
        reference = out;
      } else if (std::memcmp(out.data(), reference.data(),
                             sizeof(double) * out.size()) != 0) {
        std::fprintf(stderr, "FAIL: %s GEMM %s differs from portable\n",
                     GemmVariantName(variant), shape.c_str());
        std::exit(1);
      }
      std::printf(" %10.2f", static_cast<double>(flops) / seconds / 1e9);
      records->push_back({"dense_gemm",
                          {{"isa", GemmVariantName(variant)},
                           {"shape", shape},
                           {"threads", "1"}},
                          seconds,
                          bytes,
                          flops});
    }
    std::printf("\n");
  }
  std::printf("(every variant bitwise identical to portable)\n\n");
  SetGlobalThreadPoolThreads(machine);
}

// --- Per-variant SpMM kernels and non-zero count at gnmf_step's shapes. ---
//
// gnmf_step multiplies 512×512 blocks of its 1%-dense X with 512×128 and
// 128×512 factor blocks, and counts the non-zeros of every dense result
// block.  Each supported variant runs single-threaded, `reps` times into
// one accumulator (so every variant's final output sees the same
// sequence of adds); the best repetition is reported, and every variant's
// output must equal the portable loop's bit for bit — the suite exits
// non-zero otherwise.

template <typename Kernel>
double BestOfReps(int reps, Kernel kernel) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    kernel();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void RunSparseVariantSuite(std::vector<bench::BenchRecord>* records) {
  const int machine = GlobalParallelism();
  SetGlobalThreadPoolThreads(1);
  const SparseMatrix x = RandomSparse(512, 512, 0.01, 41, -1.0, 1.0);
  const DenseMatrix w = RandomDense(512, 128, 42, -1.0, 1.0);
  const DenseMatrix h = RandomDense(128, 512, 43, -1.0, 1.0);
  DenseMatrix counted = RandomDense(512, 128, 44, -1.0, 1.0);
  for (std::int64_t i = 0; i < counted.size(); i += 7) {
    counted.data()[i] = i % 2 ? -0.0 : 0.0;
  }

  struct Row {
    const char* kernel;
    const char* shape;
    std::int64_t flops;  // for CountNonZeros: cells compared
    std::int64_t bytes;
    // Runs the kernel with `variant` `reps` times and returns the best
    // repetition's seconds; the output goes to *out.
    std::function<double(GemmVariant, int, std::vector<double>*)> run;
  };
  const Row rows[] = {
      {"spmm_sparse_dense", "512x512(1%)x128", 2 * x.nnz() * w.cols(),
       12 * x.nnz() + 8 * (w.size() + 2 * x.rows() * w.cols()),
       [&](GemmVariant variant, int reps, std::vector<double>* out) {
         DenseMatrix acc(x.rows(), w.cols());
         const double best = BestOfReps(reps, [&] {
           SpmmAccSparseDense(variant, &acc, x, w, nullptr);
         });
         out->assign(acc.data(), acc.data() + acc.size());
         return best;
       }},
      {"spmm_dense_sparse", "128x512x512(1%)", 2 * h.rows() * x.nnz(),
       12 * x.nnz() + 8 * (h.size() + 2 * h.rows() * x.cols()),
       [&](GemmVariant variant, int reps, std::vector<double>* out) {
         DenseMatrix acc(h.rows(), x.cols());
         const double best = BestOfReps(reps, [&] {
           SpmmAccDenseSparse(variant, &acc, h, x, nullptr);
         });
         out->assign(acc.data(), acc.data() + acc.size());
         return best;
       }},
      {"count_nonzeros", "512x128", counted.size(), 8 * counted.size(),
       [&](GemmVariant variant, int reps, std::vector<double>* out) {
         std::int64_t nnz = 0;
         const double best = BestOfReps(
             reps, [&] { nnz = counted.CountNonZeros(variant); });
         out->assign(1, static_cast<double>(nnz));
         return best;
       }},
  };

  std::printf("--- sparse kernels and nnz count per variant, 1 thread "
              "(GFLOP/s; count: Gcell/s) ---\n");
  std::printf("%-34s", "kernel shape");
  for (GemmVariant variant : SupportedGemmVariants()) {
    std::printf(" %10s", GemmVariantName(variant));
  }
  std::printf("\n");
  for (const Row& row : rows) {
    // Enough repetitions to cover ~20 ms of portable work.
    const int reps = static_cast<int>(
        std::clamp<std::int64_t>((std::int64_t{1} << 24) / row.flops, 3, 200));
    std::printf("%-17s %-16s", row.kernel, row.shape);
    std::vector<double> reference;
    for (GemmVariant variant : SupportedGemmVariants()) {
      std::vector<double> out;
      const double seconds = row.run(variant, reps, &out);
      if (variant == GemmVariant::kPortable) {
        reference = out;
      } else if (out.size() != reference.size() ||
                 std::memcmp(out.data(), reference.data(),
                             sizeof(double) * out.size()) != 0) {
        std::fprintf(stderr, "FAIL: %s %s %s differs from portable\n",
                     GemmVariantName(variant), row.kernel, row.shape);
        std::exit(1);
      }
      std::printf(" %10.2f", static_cast<double>(row.flops) / seconds / 1e9);
      records->push_back({row.kernel,
                          {{"isa", GemmVariantName(variant)},
                           {"shape", row.shape},
                           {"threads", "1"}},
                          seconds,
                          row.bytes,
                          row.flops});
    }
    std::printf("\n");
  }
  std::printf("(every variant bitwise identical to portable; a variant "
              "with no vector version of a kernel runs its portable loop)\n\n");
  SetGlobalThreadPoolThreads(machine);
}

}  // namespace
}  // namespace fuseme

int main(int argc, char** argv) {
  std::vector<fuseme::bench::BenchRecord> records;
  fuseme::MetricsRegistry metrics;
  fuseme::RunGemmSpeedupSuite(&records, &metrics);
  fuseme::RunGemmVariantSuite(&records);
  fuseme::RunSparseVariantSuite(&records);
  if (!fuseme::bench::WriteBenchJson("microkernels", records,
                                     metrics.Snapshot().ToJson())) {
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
