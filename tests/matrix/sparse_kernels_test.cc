// Golden suite for the sparsity-aware kernels (DESIGN.md section 15):
// every kernel is checked against a naive dense reference across a
// density × shape sweep, serial and parallel runs are required to agree
// bitwise, and the block_ops sparse paths that used to bypass the kernels
// get regression coverage (merge-join element-wise multiply, i-outer
// dense×sparse accumulation, thread-pool dispatch thresholds).

#include "matrix/sparse_kernels.h"

#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

DenseMatrix RefMatMul(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        out(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return out;
}

DenseMatrix Added(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix out = a;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < a.cols(); ++j) out(i, j) += b(i, j);
  }
  return out;
}

bool BitwiseEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.size()) == 0;
}

// Restores the global pool size on scope exit so tests compose.
struct PoolGuard {
  explicit PoolGuard(int threads) : previous(GlobalParallelism()) {
    SetGlobalThreadPoolThreads(threads);
  }
  ~PoolGuard() { SetGlobalThreadPoolThreads(previous); }
  int previous;
};

// ---------------------------------------------------------------------------
// Golden sweep: densities × shapes, every kernel vs the dense reference.

using Shape = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

class SparseKernelsGolden
    : public ::testing::TestWithParam<std::tuple<double, Shape>> {};

TEST_P(SparseKernelsGolden, SpmmSparseDenseMatchesReference) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  SparseMatrix a = RandomSparse(m, k, density, /*seed=*/101, 0.5, 2.0);
  DenseMatrix b = RandomDense(k, n, /*seed=*/102, 0.5, 2.0);
  DenseMatrix acc = RandomDense(m, n, /*seed=*/103, -1.0, 1.0);
  DenseMatrix expected = Added(acc, RefMatMul(a.ToDense(), b));
  std::int64_t flops = 0;
  SpmmAccSparseDense(&acc, a, b, &flops);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, expected), 1e-9);
  EXPECT_EQ(flops, 2 * a.nnz() * n);
}

TEST_P(SparseKernelsGolden, SpmmDenseSparseMatchesReference) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  DenseMatrix a = RandomDense(m, k, /*seed=*/111, 0.5, 2.0);
  SparseMatrix b = RandomSparse(k, n, density, /*seed=*/112, 0.5, 2.0);
  DenseMatrix acc = RandomDense(m, n, /*seed=*/113, -1.0, 1.0);
  DenseMatrix expected = Added(acc, RefMatMul(a, b.ToDense()));
  std::int64_t flops = 0;
  SpmmAccDenseSparse(&acc, a, b, &flops);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, expected), 1e-9);
  EXPECT_EQ(flops, 2 * m * b.nnz());
}

TEST_P(SparseKernelsGolden, SpmmSparseSparseMatchesReference) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  SparseMatrix a = RandomSparse(m, k, density, /*seed=*/121, 0.5, 2.0);
  SparseMatrix b = RandomSparse(k, n, density, /*seed=*/122, 0.5, 2.0);
  DenseMatrix acc = RandomDense(m, n, /*seed=*/123, -1.0, 1.0);
  DenseMatrix expected = Added(acc, RefMatMul(a.ToDense(), b.ToDense()));
  std::int64_t flops = 0;
  SpmmAccSparseSparse(&acc, a, b, &flops);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, expected), 1e-9);
  EXPECT_GE(flops, 0);  // 2 × products actually formed
}

TEST_P(SparseKernelsGolden, TransposeSpmmMatchesReference) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  // a stored untransposed as k×m; result is aᵀ·b, an m×n accumulation.
  SparseMatrix a = RandomSparse(k, m, density, /*seed=*/131, 0.5, 2.0);
  DenseMatrix bd = RandomDense(k, n, /*seed=*/132, 0.5, 2.0);
  DenseMatrix expected_gain = RefMatMul(a.ToDense().Transposed(), bd);

  for (bool sparse_b : {false, true}) {
    Block b = sparse_b ? Block::FromSparse(SparseMatrix::FromDense(bd))
                       : Block::FromDense(bd);
    DenseMatrix acc = RandomDense(m, n, /*seed=*/133, -1.0, 1.0);
    DenseMatrix expected = Added(acc, expected_gain);
    std::int64_t flops = 0;
    TransposeSpmmAcc(&acc, a, b, &flops);
    EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, expected), 1e-9)
        << "sparse_b=" << sparse_b;
  }
}

TEST_P(SparseKernelsGolden, SddmmMatchesElementDots) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  SparseMatrix mask = RandomSparse(m, n, density, /*seed=*/141, 1.0, 2.0);
  DenseMatrix a = RandomDense(m, k, /*seed=*/142, 0.5, 2.0);
  DenseMatrix b = RandomDense(k, n, /*seed=*/143, 0.5, 2.0);
  std::vector<double> acc(mask.nnz(), 0.0);
  std::int64_t flops = 0;
  SddmmAcc(mask, Block::FromDense(a), Block::FromDense(b), &acc, &flops);
  std::int64_t p = 0;
  mask.ForEach([&](std::int64_t i, std::int64_t j, double) {
    double dot = 0.0;
    for (std::int64_t kk = 0; kk < k; ++kk) dot += a(i, kk) * b(kk, j);
    // Same ascending-k order as the kernel: bitwise equality required.
    EXPECT_EQ(acc[p], dot) << "entry " << p;
    ++p;
  });
  EXPECT_EQ(flops, 2 * mask.nnz() * k);
}

TEST_P(SparseKernelsGolden, EwiseMulMergeJoinMatchesDenseProduct) {
  auto [density, shape] = GetParam();
  auto [m, k, n] = shape;
  (void)k;
  SparseMatrix a = RandomSparse(m, n, density, /*seed=*/151, 0.5, 2.0);
  SparseMatrix b = RandomSparse(m, n, density, /*seed=*/152, 0.5, 2.0);
  std::int64_t flops = 0;
  SparseMatrix got = EwiseMulMergeJoin(a, b, &flops);
  DenseMatrix da = a.ToDense(), db = b.ToDense();
  DenseMatrix expected(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) expected(i, j) = da(i, j) * db(i, j);
  }
  EXPECT_TRUE(BitwiseEqual(got.ToDense(), expected));
  EXPECT_EQ(flops, std::min(a.nnz(), b.nnz()));
  EXPECT_LE(got.nnz(), std::min(a.nnz(), b.nnz()));
}

INSTANTIATE_TEST_SUITE_P(
    DensityShapeSweep, SparseKernelsGolden,
    ::testing::Combine(::testing::Values(0.001, 0.01, 0.1, 0.5),
                       ::testing::Values(Shape{37, 29, 23},
                                         Shape{64, 64, 64},
                                         Shape{128, 96, 80})));

// ---------------------------------------------------------------------------
// Determinism: serial and parallel runs must agree bitwise, because the
// parallel kernels only partition the (disjoint) output rows — the
// per-element accumulation order never changes.

TEST(SparseKernelsTest, SpmmSparseDenseSerialParallelBitwiseIdentical) {
  // 2·nnz·n ≈ 2 · 260k · 32 ≈ 17M FLOPs — clears kSparseParallelFlops.
  SparseMatrix a = RandomSparse(1024, 512, 0.5, /*seed=*/201, 0.5, 2.0);
  DenseMatrix b = RandomDense(512, 32, /*seed=*/202, -1.0, 1.0);
  ASSERT_GE(2 * a.nnz() * b.cols(), kSparseParallelFlops);

  DenseMatrix serial(1024, 32), parallel(1024, 32);
  {
    PoolGuard guard(1);
    SpmmAccSparseDense(&serial, a, b, nullptr);
  }
  {
    PoolGuard guard(4);
    SparseKernelCounts counts;
    SpmmAccSparseDense(&parallel, a, b, nullptr, &counts);
    EXPECT_EQ(counts.parallel_launches, 1);
  }
  EXPECT_TRUE(BitwiseEqual(serial, parallel));
}

TEST(SparseKernelsTest, TransposeSpmmSerialParallelBitwiseIdentical) {
  SparseMatrix a = RandomSparse(512, 1024, 0.5, /*seed=*/211, 0.5, 2.0);
  DenseMatrix b = RandomDense(512, 32, /*seed=*/212, -1.0, 1.0);
  DenseMatrix serial(1024, 32), parallel(1024, 32);
  {
    PoolGuard guard(1);
    TransposeSpmmAcc(&serial, a, Block::FromDense(b), nullptr);
  }
  {
    PoolGuard guard(4);
    TransposeSpmmAcc(&parallel, a, Block::FromDense(b), nullptr);
  }
  EXPECT_TRUE(BitwiseEqual(serial, parallel));
}

TEST(SparseKernelsTest, SddmmSerialParallelBitwiseIdentical) {
  SparseMatrix mask = RandomSparse(1024, 512, 0.1, /*seed=*/221, 1.0, 2.0);
  DenseMatrix a = RandomDense(1024, 128, /*seed=*/222, -1.0, 1.0);
  DenseMatrix b = RandomDense(128, 512, /*seed=*/223, -1.0, 1.0);
  ASSERT_GE(2 * mask.nnz() * a.cols(), kSparseParallelFlops);
  std::vector<double> serial(mask.nnz(), 0.0), parallel(mask.nnz(), 0.0);
  {
    PoolGuard guard(1);
    SddmmAcc(mask, Block::FromDense(a), Block::FromDense(b), &serial,
             nullptr);
  }
  {
    PoolGuard guard(4);
    SddmmAcc(mask, Block::FromDense(a), Block::FromDense(b), &parallel,
             nullptr);
  }
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        sizeof(double) * serial.size()),
            0);
}

// Bugfix regression: dense-A × sparse-B accumulation is i-outer
// row-streaming now, but per output element the k contributions must still
// land in ascending-k order — bitwise identical to the old kk-outer loop.
TEST(SparseKernelsTest, DenseSparseMatchesKkOuterReferenceBitwise) {
  DenseMatrix a = RandomDense(96, 80, /*seed=*/231, -2.0, 2.0);
  SparseMatrix b = RandomSparse(80, 64, 0.2, /*seed=*/232, -1.0, 1.0);
  DenseMatrix got = RandomDense(96, 64, /*seed=*/233, -1.0, 1.0);
  DenseMatrix ref = got;  // same starting accumulator

  // The pre-fix formulation: kk-outer over b's rows, i innermost.
  const auto& rp = b.row_ptr();
  const auto& ci = b.col_idx();
  const auto& vb = b.values();
  for (std::int64_t kk = 0; kk < b.rows(); ++kk) {
    for (std::int64_t p = rp[kk]; p < rp[kk + 1]; ++p) {
      for (std::int64_t i = 0; i < a.rows(); ++i) {
        ref(i, ci[p]) += a(i, kk) * vb[p];
      }
    }
  }
  SpmmAccDenseSparse(&got, a, b, nullptr);
  EXPECT_TRUE(BitwiseEqual(got, ref));
}

// Bugfix regression: small kernels must NOT pay the fork/join cost — the
// nnz-based FLOP threshold keeps them inline even with a warm pool.
TEST(SparseKernelsTest, SmallKernelsStayInline) {
  PoolGuard guard(4);
  SparseMatrix a = RandomSparse(128, 64, 0.1, /*seed=*/241, 0.5, 2.0);
  DenseMatrix b = RandomDense(64, 8, /*seed=*/242, 0.5, 2.0);
  DenseMatrix acc(128, 8);
  SparseKernelCounts counts;
  SpmmAccSparseDense(&acc, a, b, nullptr, &counts);
  EXPECT_EQ(counts.parallel_launches, 0);
  EXPECT_EQ(counts.spmm_sparse_dense_calls, 1);
  EXPECT_EQ(counts.flops, 2 * a.nnz() * b.cols());
}

// ---------------------------------------------------------------------------
// block_ops integration regressions.

// Bugfix regression: both-sparse element-wise multiply runs the merge-join
// (no per-entry binary searches) and matches the dense product exactly.
TEST(SparseKernelsTest, BothSparseEwiseMulUsesMergeJoin) {
  SparseMatrix sa = RandomSparse(200, 200, 0.001, /*seed=*/251, 0.5, 2.0);
  SparseMatrix sb = RandomSparse(200, 200, 0.001, /*seed=*/252, 0.5, 2.0);
  Block a = Block::FromSparse(sa);
  Block b = Block::FromSparse(sb);
  SparseKernelCounts counts;
  std::int64_t flops = 0;
  auto result = EwiseBinary(BinaryFn::kMul, a, b, &flops, &counts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(counts.ewise_merge_join_calls, 1);
  EXPECT_EQ(flops, std::min(sa.nnz(), sb.nnz()));
  EXPECT_EQ(counts.flops, flops);

  DenseMatrix da = sa.ToDense(), db = sb.ToDense();
  DenseMatrix expected(200, 200);
  for (std::int64_t i = 0; i < 200; ++i) {
    for (std::int64_t j = 0; j < 200; ++j) {
      expected(i, j) = da(i, j) * db(i, j);
    }
  }
  EXPECT_TRUE(BitwiseEqual(result->ToDense(), expected));
}

// Bugfix regression: all three sparse MatMulAcc paths route through the
// CSR kernels (visible in the call counters).
TEST(SparseKernelsTest, MatMulAccRoutesThroughSparseKernels) {
  DenseMatrix d = RandomDense(48, 40, /*seed=*/261, 0.5, 2.0);
  SparseMatrix s = RandomSparse(40, 32, 0.1, /*seed=*/262, 0.5, 2.0);
  SparseMatrix s2 = RandomSparse(48, 40, 0.1, /*seed=*/263, 0.5, 2.0);
  Block bd = Block::FromDense(d);
  Block bs = Block::FromSparse(s);
  Block bs2 = Block::FromSparse(s2);

  SparseKernelCounts counts;
  std::int64_t flops = 0;
  DenseMatrix acc1(48, 32);  // dense × sparse
  ASSERT_TRUE(MatMulAcc(&acc1, bd, bs, &flops, &counts).ok());
  DenseMatrix acc2(48, 32);
  ASSERT_TRUE(MatMulAcc(&acc2, bs2, Block::FromDense(s.ToDense()), &flops,
                        &counts)
                  .ok());
  DenseMatrix acc3(48, 32);  // sparse × sparse
  ASSERT_TRUE(MatMulAcc(&acc3, bs2, bs, &flops, &counts).ok());
  EXPECT_EQ(counts.spmm_dense_sparse_calls, 1);
  EXPECT_EQ(counts.spmm_sparse_dense_calls, 1);
  EXPECT_EQ(counts.spmm_sparse_sparse_calls, 1);
  // Every one of the three products ran in a sparse kernel, so the kernel
  // tally and the caller's flops agree.
  EXPECT_EQ(counts.flops, flops);

  // All three agree with the dense reference.
  DenseMatrix expected = RefMatMul(s2.ToDense(), s.ToDense());
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc2, expected), 1e-9);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc3, expected), 1e-9);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc1, RefMatMul(d, s.ToDense())), 1e-9);
}

// ---------------------------------------------------------------------------
// TSan hammer (scripts/run_tsan.sh matches on "SparseKernels"): repeated
// parallel launches of every row-slab kernel with a busy pool.  Any slab
// overlap or counter race shows up as a TSan report, and the bitwise check
// catches silent double-accumulation.

TEST(SparseKernelsTest, ParallelHammer) {
  PoolGuard guard(4);
  SparseMatrix a = RandomSparse(1024, 512, 0.5, /*seed=*/271, 0.5, 2.0);
  DenseMatrix b = RandomDense(512, 32, /*seed=*/272, -1.0, 1.0);
  SparseMatrix at = RandomSparse(512, 1024, 0.5, /*seed=*/273, 0.5, 2.0);
  SparseMatrix mask = RandomSparse(1024, 512, 0.1, /*seed=*/274, 1.0, 2.0);
  DenseMatrix ma = RandomDense(1024, 128, /*seed=*/275, -1.0, 1.0);
  DenseMatrix mb = RandomDense(128, 512, /*seed=*/276, -1.0, 1.0);

  DenseMatrix spmm_first(1024, 32);
  SpmmAccSparseDense(&spmm_first, a, b, nullptr);
  for (int iter = 0; iter < 3; ++iter) {
    DenseMatrix spmm(1024, 32);
    SpmmAccSparseDense(&spmm, a, b, nullptr);
    EXPECT_TRUE(BitwiseEqual(spmm, spmm_first));
    DenseMatrix tacc(1024, 32);
    TransposeSpmmAcc(&tacc, at, Block::FromDense(b), nullptr);
    std::vector<double> dots(mask.nnz(), 0.0);
    SddmmAcc(mask, Block::FromDense(ma), Block::FromDense(mb), &dots,
             nullptr);
  }
}

}  // namespace
}  // namespace fuseme
