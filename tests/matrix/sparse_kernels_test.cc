// Golden suite for the sparsity-aware kernels (DESIGN.md section 15):
// every kernel is checked against a naive dense reference across a
// density × shape sweep, serial and parallel runs are required to agree
// bitwise, and the block_ops sparse paths that used to bypass the kernels
// get regression coverage (merge-join element-wise multiply, i-outer
// dense×sparse accumulation, thread-pool dispatch thresholds).

#include "matrix/sparse_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/gemm_kernel.h"
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
// Every SpMM variant against the scalar loops, bit for bit.

// The contract every variant of the two SpMM orientations meets: per
// output element the contributions in the portable loop's order
// (ascending p within a row of CSR a; ascending k, then p, for CSR b),
// each a rounded multiply then a rounded add, zero terms included.  This
// file is built with -ffp-contract=off so the compiler cannot fuse the
// multiply and add here.  With `fused` the loops use std::fma instead —
// what a contracted kernel would compute.
DenseMatrix NaiveSparseDense(DenseMatrix acc, const SparseMatrix& a,
                             const DenseMatrix& b, bool fused = false) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
      const double va = a.values()[p];
      const std::int64_t kk = a.col_idx()[p];
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        acc(i, j) = fused ? std::fma(va, b(kk, j), acc(i, j))
                          : acc(i, j) + va * b(kk, j);
      }
    }
  }
  return acc;
}

DenseMatrix NaiveDenseSparse(DenseMatrix acc, const DenseMatrix& a,
                             const SparseMatrix& b, bool fused = false) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t kk = 0; kk < a.cols(); ++kk) {
      const double va = a(i, kk);
      for (std::int64_t p = b.row_ptr()[kk]; p < b.row_ptr()[kk + 1]; ++p) {
        const std::int64_t j = b.col_idx()[p];
        acc(i, j) = fused ? std::fma(va, b.values()[p], acc(i, j))
                          : acc(i, j) + va * b.values()[p];
      }
    }
  }
  return acc;
}

// A uniform draw in [0, 1) that depends only on (seed, i, j) — splitmix64
// over the three — so a sparsity pattern is fixed per cell, whatever the
// shape.
double Unit(std::uint64_t seed, std::int64_t i, std::int64_t j) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(i) * 0xBF58476D1CE4E5B9ull +
                    static_cast<std::uint64_t>(j) * 0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

// A rows×cols CSR that stores value(i, j) — explicit zeros included —
// wherever stored(i, j) holds.
template <typename Stored, typename Value>
SparseMatrix CsrWhere(std::int64_t rows, std::int64_t cols, Stored stored,
                      Value value) {
  std::vector<std::int64_t> row_ptr = {0}, col_idx;
  std::vector<double> values;
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      if (!stored(i, j)) continue;
      col_idx.push_back(j);
      values.push_back(value(i, j));
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return SparseMatrix::FromCsr(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

// Operands on which any departure from the contract changes output bits:
//  - a contraction tripwire in output column 0: acc is -1, the only
//    non-zero term is (1+2^-30)·(1-2^-30), and every other term is ±0, so
//    the cell ends at 0 with a separate multiply and add but at -2^-60
//    with an fma (CSR × dense: even rows only, so odd rows at 1% stay
//    mostly empty);
//  - zeros of both signs in a (stored ones in the CSR), and -0.0 in acc,
//    so a skipped zero term or a lost -0.0 shows (-0.0 + +0.0 is +0.0);
//  - NaN, +Inf and -Inf in every seventh row of the right operand (in
//    separate columns; every fourth column stays finite), so zero terms
//    meet 0·Inf, and a NaN in a at (2, 0).
// Every NaN is the default NaN, the one 0·Inf and Inf-Inf produce: an add
// of two NaNs keeps the first operand's payload, and the vector and scalar
// code may order an add's operands differently, so one NaN pattern keeps
// the comparison about the arithmetic.
struct SpmmOperands {
  DenseMatrix acc;
  SparseMatrix sparse_a;  // CSR × dense: sparse_a · dense_b
  DenseMatrix dense_b;
  DenseMatrix dense_a;    // dense × CSR: dense_a · sparse_b
  SparseMatrix sparse_b;
};

double DefaultNaN() {
  volatile double zero = 0.0;
  return zero * std::numeric_limits<double>::infinity();
}

SpmmOperands TrickySpmmOperands(std::int64_t m, std::int64_t k,
                                std::int64_t n, double density,
                                std::uint64_t seed) {
  const double nan = DefaultNaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double trip_a = 1.0 + std::ldexp(1.0, -30);
  const double trip_b = 1.0 - std::ldexp(1.0, -30);
  const auto signed_zero = [](std::int64_t x) { return x % 2 ? -0.0 : 0.0; };
  // The special value of cell (kk, j) of a right operand, or 1 for none.
  const auto special = [&](std::int64_t kk, std::int64_t j) {
    if (kk % 7 != 3 || j % 4 == 0) return 1.0;
    return j % 4 == 1 ? nan : j % 4 == 2 ? inf : -inf;
  };

  SpmmOperands ops;
  ops.acc = RandomDense(m, n, seed, -1.0, 1.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if ((i + j) % 3 == 0) ops.acc(i, j) = -0.0;
    }
    ops.acc(i, 0) = -1.0;
  }

  ops.sparse_a = CsrWhere(
      m, k,
      [&](std::int64_t i, std::int64_t kk) {
        return Unit(seed + 1, i, kk) < density ||
               (density > 0 && kk == 0 && i % 2 == 0);
      },
      [&](std::int64_t i, std::int64_t kk) {
        if (kk == 0 && i % 2 == 0) return i == 2 ? nan : trip_a;
        if (i % 5 == 3 || (i + kk) % 6 == 1) return signed_zero(i + kk);
        return 2.0 * Unit(seed + 2, i, kk) - 1.0;
      });
  ops.dense_b = RandomDense(k, n, seed + 3, -1.0, 1.0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 1; j < n; ++j) {
      if (special(kk, j) != 1.0) ops.dense_b(kk, j) = special(kk, j);
    }
    ops.dense_b(kk, 0) = kk == 0 ? trip_b : signed_zero(kk);
  }

  ops.dense_a = RandomDense(m, k, seed + 4, -1.0, 1.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (i % 5 == 3 || (i + kk) % 6 == 1) {
        ops.dense_a(i, kk) = signed_zero(i + kk);
      }
    }
    if (ops.dense_a(i, 0) != 0.0) ops.dense_a(i, 0) = i == 2 ? nan : trip_a;
  }
  ops.sparse_b = CsrWhere(
      k, n,
      [&](std::int64_t kk, std::int64_t j) {
        return Unit(seed + 5, kk, j) < density ||
               (density > 0 && kk == 0 && j == 0);
      },
      [&](std::int64_t kk, std::int64_t j) {
        if (j == 0) return kk == 0 ? trip_b : signed_zero(kk);
        if (special(kk, j) != 1.0) return special(kk, j);
        if ((kk + j) % 6 == 1) return signed_zero(kk + j);
        return 2.0 * Unit(seed + 6, kk, j) - 1.0;
      });
  return ops;
}

// Every variant of both SpMM orientations this host supports, at 1 and 4
// threads, and the dispatched overloads, must reproduce the scalar loops
// bit for bit: 1-7 leftover rows past an 8-row panel, widths around the
// 8-lane vector and the 32-column strip, three inner dimensions, and
// densities from empty to full.  m=130 at full density is large enough to
// split into parallel row slabs.  Variants the host lacks are reported by
// a skip once the others ran.
TEST(SparseKernelsTest, EveryVariantMatchesScalarOracleBitwise) {
  PoolGuard restore(GlobalParallelism());
  std::uint64_t seed = 300;
  bool ran_parallel = false;
  for (std::int64_t m : {1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 130}) {
    for (std::int64_t n : {1, 7, 8, 31, 32, 33, 130}) {
      for (std::int64_t k : {1, 67, 257}) {
        for (double density : {0.0, 0.01, 0.25, 1.0}) {
          SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n
                                            << " at density " << density);
          const SpmmOperands ops =
              TrickySpmmOperands(m, k, n, density, seed += 7);
          const DenseMatrix want_sd =
              NaiveSparseDense(ops.acc, ops.sparse_a, ops.dense_b);
          const DenseMatrix want_ds =
              NaiveDenseSparse(ops.acc, ops.dense_a, ops.sparse_b);
          if (density > 0) {
            // The inputs really are a tripwire for contraction.
            ASSERT_FALSE(BitwiseEqual(
                want_sd,
                NaiveSparseDense(ops.acc, ops.sparse_a, ops.dense_b, true)));
            ASSERT_FALSE(BitwiseEqual(
                want_ds,
                NaiveDenseSparse(ops.acc, ops.dense_a, ops.sparse_b, true)));
          }
          for (int threads : {1, 4}) {
            SetGlobalThreadPoolThreads(threads);
            for (GemmVariant variant : SupportedGemmVariants()) {
              SparseKernelCounts counts;
              std::int64_t flops = 0;
              DenseMatrix got = ops.acc;
              SpmmAccSparseDense(variant, &got, ops.sparse_a, ops.dense_b,
                                 &flops, &counts);
              EXPECT_TRUE(BitwiseEqual(got, want_sd))
                  << "SpmmAccSparseDense " << GemmVariantName(variant)
                  << " at " << threads << " threads";
              EXPECT_EQ(flops, 2 * ops.sparse_a.nnz() * n);
              got = ops.acc;
              flops = 0;
              SpmmAccDenseSparse(variant, &got, ops.dense_a, ops.sparse_b,
                                 &flops, &counts);
              EXPECT_TRUE(BitwiseEqual(got, want_ds))
                  << "SpmmAccDenseSparse " << GemmVariantName(variant)
                  << " at " << threads << " threads";
              EXPECT_EQ(flops, 2 * m * ops.sparse_b.nnz());
              ran_parallel = ran_parallel || counts.parallel_launches > 0;
            }
            DenseMatrix got = ops.acc;
            SpmmAccSparseDense(&got, ops.sparse_a, ops.dense_b, nullptr);
            EXPECT_TRUE(BitwiseEqual(got, want_sd))
                << "dispatched SpmmAccSparseDense at " << threads
                << " threads";
            got = ops.acc;
            SpmmAccDenseSparse(&got, ops.dense_a, ops.sparse_b, nullptr);
            EXPECT_TRUE(BitwiseEqual(got, want_ds))
                << "dispatched SpmmAccDenseSparse at " << threads
                << " threads";
          }
        }
      }
    }
  }
  EXPECT_TRUE(ran_parallel) << "no case split into parallel row slabs";

  std::string missing;
  for (GemmVariant variant :
       {GemmVariant::kPortable, GemmVariant::kAvx2, GemmVariant::kAvx512}) {
    if (!GemmVariantSupported(variant)) {
      missing += std::string(" ") + GemmVariantName(variant);
    }
  }
  if (!missing.empty()) {
    GTEST_SKIP() << "kernel variants not supported on this host:" << missing;
  }
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
