// Block-kernel correctness: every kernel is checked against a plain dense
// reference over all representation combinations (zero/dense/sparse), and
// meta blocks are checked for descriptor propagation.

#include "matrix/block_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "matrix/gemm_kernel.h"
#include "matrix/generators.h"
#include "matrix/sparsity.h"

namespace fuseme {
namespace {

// Builds the same logical matrix in a given representation.
enum class Repr { kZero, kDense, kSparse };

Block MakeRepr(const DenseMatrix& value, Repr repr) {
  switch (repr) {
    case Repr::kZero:
      return Block::Zero(value.rows(), value.cols());
    case Repr::kDense:
      return Block::FromDense(value);
    case Repr::kSparse:
      return Block::FromSparse(SparseMatrix::FromDense(value));
  }
  return Block();
}

DenseMatrix ValueFor(Repr repr, std::int64_t rows, std::int64_t cols,
                     std::uint64_t seed, double density = 0.3) {
  if (repr == Repr::kZero) return DenseMatrix(rows, cols);
  if (repr == Repr::kSparse) {
    return RandomSparse(rows, cols, density, seed, 0.5, 2.0).ToDense();
  }
  return RandomDense(rows, cols, seed, 0.5, 2.0);
}

// Bitwise equality: unlike MaxAbsDiff it also tells -0.0 from +0.0 and
// one NaN payload from another.
bool SameBits(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

class EwiseBinaryAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, Repr, BinaryFn>> {};

TEST_P(EwiseBinaryAllReprs, MatchesDenseReference) {
  auto [ra, rb, fn] = GetParam();
  DenseMatrix va = ValueFor(ra, 6, 5, 10);
  DenseMatrix vb = ValueFor(rb, 6, 5, 20);
  Block a = MakeRepr(va, ra);
  Block b = MakeRepr(vb, rb);

  std::int64_t flops = 0;
  auto result = EwiseBinary(fn, a, b, &flops);
  ASSERT_TRUE(result.ok()) << result.status();

  DenseMatrix expected(6, 5);
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      expected(i, j) = ApplyBinary(fn, va(i, j), vb(i, j));
    }
  }
  EXPECT_TRUE(SameBits(result->ToDense(), expected));
  if (!(a.is_zero() && b.is_zero())) {
    EXPECT_GE(flops, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EwiseBinaryAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(BinaryFn::kAdd, BinaryFn::kSub, BinaryFn::kMul,
                          BinaryFn::kDiv, BinaryFn::kMin, BinaryFn::kMax,
                          BinaryFn::kNotEqual)));

TEST(EwiseBinaryTest, ShapeMismatchIsInvalidArgument) {
  Block a = Block::Zero(2, 3);
  Block b = Block::Zero(3, 2);
  auto result = EwiseBinary(BinaryFn::kAdd, a, b);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(EwiseBinaryTest, SparseMulKeepsSparsity) {
  Block sparse =
      Block::FromSparse(RandomSparse(20, 20, 0.05, 7, 1.0, 2.0));
  Block dense = Block::FromDense(RandomDense(20, 20, 8, 1.0, 2.0));
  auto result = EwiseBinary(BinaryFn::kMul, sparse, dense);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nnz(), sparse.nnz());
  EXPECT_NE(result->kind(), Block::Kind::kDense);
}

TEST(EwiseBinaryTest, MulFlopsProportionalToSparseNnz) {
  Block sparse = Block::FromSparse(RandomSparse(30, 30, 0.1, 3, 1.0, 2.0));
  Block dense = Block::FromDense(RandomDense(30, 30, 4, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(EwiseBinary(BinaryFn::kMul, sparse, dense, &flops).ok());
  EXPECT_EQ(flops, sparse.nnz());  // sparsity exploitation at block level
}

// 0 - b is -b: one negation per stored entry of b, charged once, which
// is what the meta estimate min(cells, nnz(a) + nnz(b)) gives.
TEST(EwiseBinaryTest, ZeroMinusBlockChargesOnce) {
  DenseMatrix dense_value = RandomDense(12, 10, 31, 0.5, 2.0);
  dense_value(3, 4) = 0.0;
  for (const Block& b :
       {Block::FromDense(dense_value),
        Block::FromSparse(RandomSparse(12, 10, 0.2, 32, 0.5, 2.0))}) {
    SCOPED_TRACE(b.ToString());
    std::int64_t flops = 0;
    auto result = EwiseBinary(BinaryFn::kSub, Block::Zero(12, 10), b, &flops);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(flops, b.nnz());
    std::int64_t meta_flops = 0;
    ASSERT_TRUE(EwiseBinary(BinaryFn::kSub, Block::Meta(12, 10, 0),
                            Block::Meta(12, 10, b.nnz()), &meta_flops)
                    .ok());
    EXPECT_EQ(flops, meta_flops);
    auto negated = Unary(UnaryFn::kNeg, b);
    ASSERT_TRUE(negated.ok());
    EXPECT_TRUE(SameBits(result->ToDense(), negated->ToDense()));
  }
}

TEST(EwiseBinaryTest, MetaPropagatesEstimate) {
  Block a = Block::Meta(100, 100, 1000);
  Block b = Block::Meta(100, 100, 2000);
  auto result = EwiseBinary(BinaryFn::kMul, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_meta());
  EXPECT_EQ(result->nnz(),
            EstimateEwiseBinaryNnz(BinaryFn::kMul, 100, 100, 1000, 2000));
}

TEST(EwiseBinaryTest, MetaMixedWithRealStaysMeta) {
  Block a = Block::Meta(10, 10, 50);
  Block b = Block::FromDense(RandomDense(10, 10, 1));
  auto result = EwiseBinary(BinaryFn::kAdd, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_meta());
}

class EwiseScalarTest
    : public ::testing::TestWithParam<std::tuple<Repr, BinaryFn, bool>> {};

TEST_P(EwiseScalarTest, MatchesDenseReference) {
  auto [repr, fn, scalar_left] = GetParam();
  const double scalar = 1.5;
  DenseMatrix v = ValueFor(repr, 5, 4, 9);
  Block a = MakeRepr(v, repr);
  auto result = EwiseScalar(fn, a, scalar, scalar_left);
  ASSERT_TRUE(result.ok());
  DenseMatrix got = result->ToDense();
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      double expected = scalar_left ? ApplyBinary(fn, scalar, v(i, j))
                                    : ApplyBinary(fn, v(i, j), scalar);
      EXPECT_DOUBLE_EQ(got(i, j), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, EwiseScalarTest,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(BinaryFn::kAdd, BinaryFn::kMul, BinaryFn::kDiv,
                          BinaryFn::kPow),
        ::testing::Bool()));

class UnaryAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, UnaryFn>> {};

TEST_P(UnaryAllReprs, MatchesDenseReference) {
  auto [repr, fn] = GetParam();
  DenseMatrix v = ValueFor(repr, 6, 6, 13);
  Block a = MakeRepr(v, repr);
  auto result = Unary(fn, a);
  ASSERT_TRUE(result.ok());
  DenseMatrix got = result->ToDense();
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      double expected = ApplyUnary(fn, v(i, j));
      if (std::isnan(expected) || std::isinf(expected)) {
        EXPECT_EQ(std::isnan(got(i, j)), std::isnan(expected));
      } else {
        EXPECT_DOUBLE_EQ(got(i, j), expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, UnaryAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(UnaryFn::kExp, UnaryFn::kSquare, UnaryFn::kAbs,
                          UnaryFn::kNotZero, UnaryFn::kSigmoid,
                          UnaryFn::kRelu, UnaryFn::kNeg)));

TEST(UnaryTest, NonZeroPreservingOnZeroBlockIsConstant) {
  Block z = Block::Zero(3, 3);
  auto result = Unary(UnaryFn::kExp, z);  // exp(0) == 1
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(1, 1), 1.0);
  EXPECT_EQ(result->nnz(), 9);
}

class MatMulAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, Repr>> {};

TEST_P(MatMulAllReprs, MatchesDenseReference) {
  auto [ra, rb] = GetParam();
  DenseMatrix va = ValueFor(ra, 6, 4, 31);
  DenseMatrix vb = ValueFor(rb, 4, 5, 32);
  Block a = MakeRepr(va, ra);
  Block b = MakeRepr(vb, rb);
  std::int64_t flops = 0;
  auto result = MatMul(a, b, &flops);
  ASSERT_TRUE(result.ok());

  DenseMatrix expected(6, 5);
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      double acc = 0;
      for (std::int64_t k = 0; k < 4; ++k) acc += va(i, k) * vb(k, j);
      expected(i, j) = acc;
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(result->ToDense(), expected), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MatMulAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse)));

TEST(MatMulTest, InnerDimMismatchIsInvalidArgument) {
  Block a = Block::Zero(2, 3);
  Block b = Block::Zero(4, 2);
  EXPECT_TRUE(MatMul(a, b).status().IsInvalidArgument());
}

TEST(MatMulTest, DenseFlopsAre2MKN) {
  Block a = Block::FromDense(RandomDense(3, 4, 1, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(4, 5, 2, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(MatMul(a, b, &flops).ok());
  EXPECT_EQ(flops, 2 * 3 * 4 * 5);
}

TEST(MatMulTest, SparseFlopsScaleWithNnz) {
  Block a = Block::FromSparse(RandomSparse(10, 10, 0.1, 5, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(10, 10, 6, 1.0, 2.0));
  std::int64_t flops = 0;
  ASSERT_TRUE(MatMul(a, b, &flops).ok());
  EXPECT_EQ(flops, 2 * a.nnz() * 10);
}

TEST(MatMulTest, MetaProducesEstimatedDescriptor) {
  Block a = Block::Meta(100, 50, 500);
  Block b = Block::Meta(50, 80, 4000);  // dense
  std::int64_t flops = 0;
  auto result = MatMul(a, b, &flops);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_meta());
  EXPECT_EQ(result->rows(), 100);
  EXPECT_EQ(result->cols(), 80);
  EXPECT_EQ(result->nnz(), EstimateMatMulNnz(100, 50, 80, 500, 4000));
  EXPECT_EQ(flops, EstimateMatMulFlops(100, 50, 80, 500, 4000));
}

TEST(MatMulAccTest, AccumulatesAcrossCalls) {
  DenseMatrix acc(3, 3);
  Block a = Block::FromDense(RandomDense(3, 2, 41, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(2, 3, 42, 1.0, 2.0));
  ASSERT_TRUE(MatMulAcc(&acc, a, b).ok());
  ASSERT_TRUE(MatMulAcc(&acc, a, b).ok());
  auto once = MatMul(a, b);
  ASSERT_TRUE(once.ok());
  DenseMatrix twice = once->ToDense();
  for (std::int64_t i = 0; i < twice.size(); ++i) {
    twice.data()[i] *= 2.0;
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(acc, twice), 1e-10);
}

TEST(MatMulAccTest, MetaBlocksAreInvalidArgument) {
  // Meta blocks are analytic descriptors with no values; accumulating them
  // is a caller bug, not an engine failure.
  DenseMatrix acc(3, 5);
  Block a = Block::Meta(3, 4, 6);
  Block b = Block::Meta(4, 5, 10);
  Status st = MatMulAcc(&acc, a, b);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("3x4"), std::string::npos) << st;
  EXPECT_NE(st.message().find("4x5"), std::string::npos) << st;

  // Mixed meta x real is just as invalid.
  Block real = Block::FromDense(RandomDense(4, 5, 7, 1.0, 2.0));
  EXPECT_TRUE(MatMulAcc(&acc, a, real).IsInvalidArgument());
}

TEST(MatMulAccTest, InnerDimMismatchIsInvalidArgument) {
  DenseMatrix acc(2, 2);
  Block a = Block::FromDense(RandomDense(2, 3, 8, 1.0, 2.0));
  Block b = Block::FromDense(RandomDense(4, 2, 9, 1.0, 2.0));
  Status st = MatMulAcc(&acc, a, b);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("2x3"), std::string::npos) << st;
}

// The exactness contract every dense GEMM variant meets: i-k-j, k
// ascending, a rounded multiply then a rounded add, and no contribution
// from an a[i][k] that compares equal to zero.  This file is built with
// -ffp-contract=off so the compiler cannot fuse the multiply and add here.
// With `fused` the same loop uses std::fma instead — what a contracted
// kernel would compute.
DenseMatrix NaiveGemmAcc(DenseMatrix acc, const DenseMatrix& a,
                         const DenseMatrix& b, bool fused = false) {
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t kk = 0; kk < a.cols(); ++kk) {
      const double va = a(i, kk);
      if (va == 0.0) continue;
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        acc(i, j) = fused ? std::fma(va, b(kk, j), acc(i, j))
                          : acc(i, j) + va * b(kk, j);
      }
    }
  }
  return acc;
}

// The GEMM is split into 64-row slabs across threads.  Odd shapes that
// straddle every tile boundary must match the naive triple loop bitwise:
// the tiling reorders the loop nest but keeps each output element's
// k-ascending accumulation order.
TEST(MatMulAccTest, TiledGemmMatchesNaiveBitwise) {
  const std::int64_t m = 150, k = 300, n = 280;
  DenseMatrix da = RandomDense(m, k, 71, -1.0, 1.0);
  DenseMatrix db = RandomDense(k, n, 72, -1.0, 1.0);
  const DenseMatrix naive = NaiveGemmAcc(DenseMatrix(m, n), da, db);

  DenseMatrix acc(m, n);
  std::int64_t flops = 0;
  ASSERT_TRUE(
      MatMulAcc(&acc, Block::FromDense(da), Block::FromDense(db), &flops)
          .ok());
  EXPECT_TRUE(SameBits(acc, naive));
  EXPECT_EQ(flops, 2 * m * k * n);
}

// Operands on which any departure from the contract changes output bits:
//  - uniform random values, and in column 0 an explicit tripwire: acc is
//    -1, a[i][0] is 1+2^-30, b[0][0] is 1-2^-30 and the rest of b's
//    column is zero, so each non-skipped cell ends at 0 with a separate
//    multiply and add but at -2^-60 with an fma;
//  - every fifth row of a is all zeros of both signs, and acc starts with
//    -0.0 in places, so a dropped zero skip shows (-0.0 + +0.0 is +0.0);
//  - every seventh row of b holds NaN, +Inf and -Inf in separate columns
//    (every fourth column stays finite), so 0·Inf / 0·NaN leaking past the
//    skip shows, while rows of a that are non-zero there carry them into
//    acc;
//  - a NaN in a at (1, 0) must propagate, as it is not equal to zero.
// Each output cell sees at most one NaN payload, so the comparison does
// not depend on which operand of an add the compiler puts first.
struct GemmOperands {
  DenseMatrix acc, a, b;
};

GemmOperands TrickyGemmOperands(std::int64_t m, std::int64_t k,
                                std::int64_t n, std::uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  GemmOperands ops{RandomDense(m, n, seed, -1.0, 1.0),
                   RandomDense(m, k, seed + 1, -1.0, 1.0),
                   RandomDense(k, n, seed + 2, -1.0, 1.0)};
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if ((i + j) % 3 == 0) ops.acc(i, j) = -0.0;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (i % 5 == 2) {
        ops.a(i, kk) = kk % 2 == 0 ? 0.0 : -0.0;
      } else if ((i + kk) % 4 == 1) {
        ops.a(i, kk) = (i + kk) % 8 == 1 ? 0.0 : -0.0;
      }
    }
  }
  for (std::int64_t kk = 3; kk < k; kk += 7) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (j % 4 != 0) ops.b(kk, j) = j % 4 == 1 ? nan : j % 4 == 2 ? inf : -inf;
    }
  }
  for (std::int64_t i = 0; i < m; ++i) {
    ops.acc(i, 0) = -1.0;
    if (ops.a(i, 0) != 0.0) ops.a(i, 0) = 1.0 + std::ldexp(1.0, -30);
  }
  ops.b(0, 0) = 1.0 - std::ldexp(1.0, -30);
  for (std::int64_t kk = 1; kk < k; ++kk) ops.b(kk, 0) = 0.0;
  if (m > 1) ops.a(1, 0) = nan;
  return ops;
}

// Every GEMM variant this host supports, at 1 and 4 threads, and MatMulAcc
// itself (the dispatched variant), must reproduce the naive loop bit for
// bit on ragged shapes: 1-3 leftover rows, columns that are not a multiple
// of the vector tile, and m=130 at k=257, n=130, which is large enough to
// split into parallel row slabs.
// Variants the host lacks are reported by a skip once the others ran.
TEST(MatMulAccTest, EveryVariantMatchesScalarOracleBitwise) {
  struct RestoreThreads {
    int threads;
    ~RestoreThreads() { SetGlobalThreadPoolThreads(threads); }
  } restore{GlobalParallelism()};
  std::uint64_t seed = 100;
  for (std::int64_t m : {1, 3, 4, 5, 65, 130}) {
    for (std::int64_t n : {1, 7, 8, 12, 16, 31, 32, 33, 130}) {
      for (std::int64_t k : {1, 16, 67, 257}) {
        SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n);
        const GemmOperands ops = TrickyGemmOperands(m, k, n, seed += 3);
        const DenseMatrix want = NaiveGemmAcc(ops.acc, ops.a, ops.b);
        // The inputs really are a tripwire for contraction.
        ASSERT_FALSE(
            SameBits(want, NaiveGemmAcc(ops.acc, ops.a, ops.b, true)));
        for (int threads : {1, 4}) {
          SetGlobalThreadPoolThreads(threads);
          for (GemmVariant variant : SupportedGemmVariants()) {
            DenseMatrix got = ops.acc;
            DenseGemmAcc(variant, &got, ops.a, ops.b);
            EXPECT_TRUE(SameBits(got, want))
                << GemmVariantName(variant) << " at " << threads
                << " threads";
          }
          DenseMatrix got = ops.acc;
          ASSERT_TRUE(MatMulAcc(&got, Block::FromDense(ops.a),
                                Block::FromDense(ops.b))
                          .ok());
          EXPECT_TRUE(SameBits(got, want))
              << "MatMulAcc (" << GemmVariantName(DispatchedGemmVariant())
              << ") at " << threads << " threads";
        }
      }
    }
  }

  std::string missing;
  for (GemmVariant variant :
       {GemmVariant::kPortable, GemmVariant::kAvx2, GemmVariant::kAvx512}) {
    if (!GemmVariantSupported(variant)) {
      missing += std::string(" ") + GemmVariantName(variant);
    }
  }
  if (!missing.empty()) {
    GTEST_SKIP() << "GEMM variants not supported on this host:" << missing;
  }
}

// An empty inner dimension contributes nothing, whatever the variant.
TEST(MatMulAccTest, EmptyInnerDimensionLeavesAccUnchanged) {
  const DenseMatrix start = RandomDense(5, 40, 81, -1.0, 1.0);
  for (GemmVariant variant : SupportedGemmVariants()) {
    DenseMatrix acc = start;
    DenseGemmAcc(variant, &acc, DenseMatrix(5, 0), DenseMatrix(0, 40));
    EXPECT_TRUE(SameBits(acc, start)) << GemmVariantName(variant);
  }
}

class TransposeAllReprs : public ::testing::TestWithParam<Repr> {};

TEST_P(TransposeAllReprs, MatchesDenseReference) {
  Repr repr = GetParam();
  DenseMatrix v = ValueFor(repr, 5, 7, 55);
  auto result = Transpose(MakeRepr(v, repr));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ToDense() == v.Transposed());
}

INSTANTIATE_TEST_SUITE_P(AllReprs, TransposeAllReprs,
                         ::testing::Values(Repr::kZero, Repr::kDense,
                                           Repr::kSparse));

TEST(TransposeTest, MetaSwapsDims) {
  auto result = Transpose(Block::Meta(30, 20, 77));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 20);
  EXPECT_EQ(result->cols(), 30);
  EXPECT_EQ(result->nnz(), 77);
}

class AggAllReprs
    : public ::testing::TestWithParam<std::tuple<Repr, AggFn>> {};

TEST_P(AggAllReprs, FullRowColMatchReference) {
  auto [repr, fn] = GetParam();
  DenseMatrix v = ValueFor(repr, 4, 6, 77);
  Block a = MakeRepr(v, repr);

  auto fold = [fn](double acc, double x) {
    switch (fn) {
      case AggFn::kSum:
        return acc + x;
      case AggFn::kMin:
        return std::min(acc, x);
      case AggFn::kMax:
        return std::max(acc, x);
    }
    return acc;
  };

  auto full = FullAgg(fn, a);
  ASSERT_TRUE(full.ok());
  double expect_full = v(0, 0);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      if (i == 0 && j == 0) {
        expect_full = fn == AggFn::kSum ? v(0, 0) : v(0, 0);
        if (fn == AggFn::kSum) expect_full = v(0, 0);
        continue;
      }
      expect_full = fold(expect_full, v(i, j));
    }
  }
  EXPECT_NEAR(full->At(0, 0), expect_full, 1e-10);

  auto row = RowAgg(fn, a);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->rows(), 4);
  EXPECT_EQ(row->cols(), 1);
  for (std::int64_t i = 0; i < 4; ++i) {
    double expected = v(i, 0);
    for (std::int64_t j = 1; j < 6; ++j) expected = fold(expected, v(i, j));
    EXPECT_NEAR(row->At(i, 0), expected, 1e-10);
  }

  auto col = ColAgg(fn, a);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->rows(), 1);
  EXPECT_EQ(col->cols(), 6);
  for (std::int64_t j = 0; j < 6; ++j) {
    double expected = v(0, j);
    for (std::int64_t i = 1; i < 4; ++i) expected = fold(expected, v(i, j));
    EXPECT_NEAR(col->At(0, j), expected, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AggAllReprs,
    ::testing::Combine(
        ::testing::Values(Repr::kZero, Repr::kDense, Repr::kSparse),
        ::testing::Values(AggFn::kSum, AggFn::kMin, AggFn::kMax)));

TEST(AggTest, SparseMinObservesImplicitZeros) {
  // All stored values are positive, but implicit zeros exist, so the min
  // must be 0, not the smallest stored value.
  Block sparse = Block::FromSparse(
      SparseMatrix::FromTriplets(3, 3, {{0, 0, 5.0}, {1, 1, 2.0}}));
  auto result = FullAgg(AggFn::kMin, sparse);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0), 0.0);
}

TEST(MergeAggTest, SumMergesPartials) {
  Block a = Block::FromDense(DenseMatrix(2, 2, {1, 2, 3, 4}));
  Block b = Block::FromDense(DenseMatrix(2, 2, {10, 20, 30, 40}));
  auto result = MergeAgg(AggFn::kSum, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(1, 1), 44.0);
}

TEST(MergeAggTest, MaxMergesPartials) {
  Block a = Block::FromDense(DenseMatrix(1, 2, {5, 1}));
  Block b = Block::FromDense(DenseMatrix(1, 2, {2, 9}));
  auto result = MergeAgg(AggFn::kMax, a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->At(0, 0), 5.0);
  EXPECT_EQ(result->At(0, 1), 9.0);
}

// --- Every element-wise op and reduction against a scalar oracle. ---
//
// The kernels run one loop per function instead of a per-cell
// ApplyBinary / ApplyUnary call, and read dense operands in place.  The
// oracle below is the per-cell call on each operand's dense values, plus
// the block layer's sparsity rules:
//  - a function that maps 0 to 0 (x * 0 for *, fn(0) == 0 for the scalar
//    and unary ops) skips a sparse operand's implicit zeros, which stay
//    +0.0 whatever fn(0) is (-0.0, say);
//  - adding or subtracting an all-zero block returns the other operand
//    as it is (a + 0 leaves a -0.0 in a alone);
//  - a result stored sparse or as a zero block reads its zeros back as
//    +0.0, and its storage follows kDenseStorageThreshold.
// Operands mix a NaN with a payload, ±Inf, ±0.0 and denormals into
// random values.  Every NaN operand carries that one payload, so no cell
// depends on which NaN operand an instruction propagates.

double PayloadNan() {
  const std::uint64_t bits = 0x7ff80000000001c3ULL;
  double nan;
  std::memcpy(&nan, &bits, sizeof(nan));
  return nan;
}

/// Random values with specials mixed in.  With `sparse`, about 70% of the
/// cells are zero (cell 0 never is, so a 1x1 operand still has an entry).
/// Without `neg_inf`, -Inf is left out: a sum that meets +Inf and -Inf
/// makes a second NaN, the default one, and which of two NaN payloads an
/// add returns depends on its operand order.
DenseMatrix SpecialOperand(std::int64_t rows, std::int64_t cols,
                           std::uint64_t seed, bool sparse,
                           bool neg_inf = true) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {PayloadNan(), inf,         neg_inf ? -inf : 7.0,
                             0.0,          -0.0,        denorm,
                             -3 * denorm,  0x1p-1040,   -1.0};
  DenseMatrix m = RandomDense(rows, cols, seed, -2.0, 2.0);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (std::int64_t i = 0; i < m.size(); ++i) {
    if (sparse && i > 0 && next() % 10 < 7) {
      m.data()[i] = 0.0;
    } else if (next() % 4 == 0) {
      m.data()[i] = specials[next() % std::size(specials)];
    }
  }
  if (sparse && m.data()[0] == 0.0) m.data()[0] = 1.25;
  return m;
}

/// True when `value`, read from `block`, is an entry the block does not
/// store (every cell of a zero block, the zeros of a sparse one).
bool Implicit(const Block& block, double value) {
  return block.is_zero() ||
         (block.kind() == Block::Kind::kSparse && value == 0.0);
}

std::string Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

/// `got` against the oracle: exact flops, the kind and nnz the kernels'
/// normalisation gives the oracle's values (`kind` overrides the kind, for
/// a result that is an operand passed through), and every value bit for bit.
::testing::AssertionResult MatchesOracle(
    const Result<Block>& got, std::int64_t got_flops, DenseMatrix want,
    std::int64_t want_flops, std::optional<Block::Kind> kind = std::nullopt) {
  if (!got.ok()) {
    return ::testing::AssertionFailure() << got.status().ToString();
  }
  const std::int64_t nnz = want.CountNonZeros();
  if (!kind) {
    kind = nnz == 0 ? Block::Kind::kZero
           : static_cast<double>(nnz) / want.size() < kDenseStorageThreshold
               ? Block::Kind::kSparse
               : Block::Kind::kDense;
  }
  if (*kind != Block::Kind::kDense) {
    for (std::int64_t i = 0; i < want.size(); ++i) {
      if (want.data()[i] == 0.0) want.data()[i] = 0.0;
    }
  }
  if (got->kind() != *kind) {
    return ::testing::AssertionFailure()
           << "kind " << static_cast<int>(got->kind()) << ", want "
           << static_cast<int>(*kind);
  }
  if (got->nnz() != nnz) {
    return ::testing::AssertionFailure()
           << "nnz " << got->nnz() << ", want " << nnz;
  }
  if (got_flops != want_flops) {
    return ::testing::AssertionFailure()
           << "flops " << got_flops << ", want " << want_flops;
  }
  const DenseMatrix values = got->ToDense();
  for (std::int64_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&values.data()[i], &want.data()[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "cell " << i << ": " << Bits(values.data()[i]) << ", want "
             << Bits(want.data()[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

const BinaryFn kAllBinary[] = {
    BinaryFn::kAdd,   BinaryFn::kSub,      BinaryFn::kMul,
    BinaryFn::kDiv,   BinaryFn::kMin,      BinaryFn::kMax,
    BinaryFn::kPow,   BinaryFn::kEqual,    BinaryFn::kNotEqual,
    BinaryFn::kGreater, BinaryFn::kLess};

const UnaryFn kAllUnary[] = {
    UnaryFn::kIdentity, UnaryFn::kNeg,     UnaryFn::kExp,
    UnaryFn::kLog,      UnaryFn::kSqrt,    UnaryFn::kSquare,
    UnaryFn::kAbs,      UnaryFn::kSigmoid, UnaryFn::kRelu,
    UnaryFn::kSin,      UnaryFn::kCos,     UnaryFn::kNotZero,
    UnaryFn::kReciprocal};

TEST(BlockOpsTest, EveryElementwiseOpMatchesScalarOracleBitwise) {
  const std::int64_t shapes[][2] = {{1, 1}, {7, 9}, {33, 65}, {256, 256}};
  const double scalars[] = {2.5, -0.0, std::numeric_limits<double>::infinity(),
                            PayloadNan(), 0x1p-1050};
  std::uint64_t seed = 500;
  for (const auto& shape : shapes) {
    const std::int64_t rows = shape[0], cols = shape[1], cells = rows * cols;
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols);
    const Block dense = Block::FromDense(
        SpecialOperand(rows, cols, ++seed, /*sparse=*/false));
    const Block dense2 = Block::FromDense(
        SpecialOperand(rows, cols, ++seed, /*sparse=*/false));
    const Block sparse = Block::FromSparse(SparseMatrix::FromDense(
        SpecialOperand(rows, cols, ++seed, /*sparse=*/true)));
    const Block zero = Block::Zero(rows, cols);
    ASSERT_EQ(sparse.kind(), Block::Kind::kSparse);

    // Every BinaryFn over dense·dense, dense·sparse, sparse·dense and
    // dense·zero.
    const std::pair<const Block*, const Block*> pairs[] = {
        {&dense, &dense2}, {&dense, &sparse}, {&sparse, &dense},
        {&dense, &zero}};
    for (BinaryFn fn : kAllBinary) {
      for (const auto& [a, b] : pairs) {
        SCOPED_TRACE(::testing::Message()
                     << a->ToString() << " " << BinaryFnName(fn) << " "
                     << b->ToString());
        const DenseMatrix x = a->ToDense(), y = b->ToDense();
        const bool mul = fn == BinaryFn::kMul;
        const bool add_sub = fn == BinaryFn::kAdd || fn == BinaryFn::kSub;
        std::int64_t flops = 0;
        const Result<Block> got = EwiseBinary(fn, *a, *b, &flops);
        if (add_sub && b->is_zero()) {
          EXPECT_TRUE(MatchesOracle(got, flops, x, 0, a->kind()));
          continue;
        }
        DenseMatrix want(rows, cols);
        for (std::int64_t i = 0; i < cells; ++i) {
          const double xi = x.data()[i], yi = y.data()[i];
          want.data()[i] = mul && (Implicit(*a, xi) || Implicit(*b, yi))
                               ? 0.0
                               : ApplyBinary(fn, xi, yi);
        }
        std::int64_t want_flops = cells;
        if (mul && b->is_zero()) {
          want_flops = 0;
        } else if (mul && (a == &sparse || b == &sparse)) {
          want_flops = sparse.nnz();
        }
        EXPECT_TRUE(MatchesOracle(got, flops, want, want_flops));
      }
    }

    // Every BinaryFn with a scalar on either side, over dense and sparse.
    for (BinaryFn fn : kAllBinary) {
      for (double scalar : scalars) {
        for (bool scalar_left : {true, false}) {
          for (const Block* a : {&dense, &sparse}) {
            SCOPED_TRACE(::testing::Message()
                         << a->ToString() << " " << BinaryFnName(fn)
                         << " scalar " << Bits(scalar)
                         << (scalar_left ? " on the left" : " on the right"));
            auto apply = [&](double v) {
              return scalar_left ? ApplyBinary(fn, scalar, v)
                                 : ApplyBinary(fn, v, scalar);
            };
            const bool skips_zeros =
                a->kind() == Block::Kind::kSparse && apply(0.0) == 0.0;
            const DenseMatrix x = a->ToDense();
            DenseMatrix want(rows, cols);
            for (std::int64_t i = 0; i < cells; ++i) {
              const double xi = x.data()[i];
              want.data()[i] =
                  skips_zeros && Implicit(*a, xi) ? 0.0 : apply(xi);
            }
            std::int64_t flops = 0;
            const Result<Block> got =
                EwiseScalar(fn, *a, scalar, scalar_left, &flops);
            EXPECT_TRUE(MatchesOracle(got, flops, want,
                                      skips_zeros ? a->nnz() : cells));
          }
        }
      }
    }

    // Every UnaryFn over dense, sparse and zero blocks.
    for (UnaryFn fn : kAllUnary) {
      for (const Block* a : {&dense, &sparse, &zero}) {
        SCOPED_TRACE(::testing::Message()
                     << UnaryFnName(fn) << " " << a->ToString());
        const bool skips_zeros =
            !a->is_zero() && a->kind() == Block::Kind::kSparse &&
            UnaryPreservesZero(fn);
        const DenseMatrix x = a->ToDense();
        DenseMatrix want(rows, cols);
        for (std::int64_t i = 0; i < cells; ++i) {
          const double xi = x.data()[i];
          want.data()[i] =
              skips_zeros && Implicit(*a, xi) ? 0.0 : ApplyUnary(fn, xi);
        }
        std::int64_t want_flops = cells;
        if (skips_zeros) {
          want_flops = a->nnz();
        } else if (a->is_zero() && UnaryPreservesZero(fn)) {
          want_flops = 0;
        }
        std::int64_t flops = 0;
        const Result<Block> got = Unary(fn, *a, &flops);
        EXPECT_TRUE(MatchesOracle(got, flops, want, want_flops));
      }
    }

    // FullAgg / RowAgg / ColAgg x sum / min / max over dense, sparse and
    // zero blocks: each slice folds in row-major order, a sum from 0.0 and
    // min / max from the slice's first element.
    const Block agg_dense = Block::FromDense(SpecialOperand(
        rows, cols, ++seed, /*sparse=*/false, /*neg_inf=*/false));
    const Block agg_sparse = Block::FromSparse(SparseMatrix::FromDense(
        SpecialOperand(rows, cols, ++seed, /*sparse=*/true,
                       /*neg_inf=*/false)));
    for (AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
      const BinaryFn fold = fn == AggFn::kSum   ? BinaryFn::kAdd
                            : fn == AggFn::kMin ? BinaryFn::kMin
                                                : BinaryFn::kMax;
      for (const Block* a : {&agg_dense, &agg_sparse, &zero}) {
        SCOPED_TRACE(::testing::Message()
                     << AggFnName(fn) << " " << a->ToString());
        const DenseMatrix x = a->ToDense();
        // Folds x's cells first, first + step, ... (count of them).
        auto fold_slice = [&](std::int64_t first, std::int64_t step,
                              std::int64_t count) {
          double acc = fn == AggFn::kSum ? 0.0 : x.data()[first];
          for (std::int64_t k = fn == AggFn::kSum ? 0 : 1; k < count; ++k) {
            acc = ApplyBinary(fold, acc, x.data()[first + k * step]);
          }
          return acc;
        };
        const std::int64_t want_flops =
            a->is_zero() && fn == AggFn::kSum ? 0
            : a->kind() == Block::Kind::kSparse && fn == AggFn::kSum
                ? a->nnz()
                : cells;

        DenseMatrix full(1, 1);
        full(0, 0) = fold_slice(0, 1, cells);
        DenseMatrix row(rows, 1);
        for (std::int64_t i = 0; i < rows; ++i) {
          row(i, 0) = fold_slice(i * cols, 1, cols);
        }
        DenseMatrix col(1, cols);
        for (std::int64_t j = 0; j < cols; ++j) {
          col(0, j) = fold_slice(j, cols, rows);
        }
        const std::pair<const char*, decltype(&FullAgg)> aggs[] = {
            {"FullAgg", &FullAgg}, {"RowAgg", &RowAgg}, {"ColAgg", &ColAgg}};
        const DenseMatrix* wants[] = {&full, &row, &col};
        for (int k = 0; k < 3; ++k) {
          std::int64_t flops = 0;
          const Result<Block> got = aggs[k].second(fn, *a, &flops);
          EXPECT_TRUE(MatchesOracle(got, flops, *wants[k], want_flops))
              << aggs[k].first;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fuseme
