// Block-kernel correctness: every kernel is checked against a plain dense
// reference over all representation combinations (zero/dense/sparse), and
// meta blocks are checked for descriptor propagation.

#include "matrix/block_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

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
  bool expect_nan_possible = false;
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      expected(i, j) = ApplyBinary(fn, va(i, j), vb(i, j));
      if (std::isnan(expected(i, j))) expect_nan_possible = true;
    }
  }
  if (expect_nan_possible) {
    // NaN-aware comparison.
    DenseMatrix got = result->ToDense();
    for (std::int64_t i = 0; i < 6; ++i) {
      for (std::int64_t j = 0; j < 5; ++j) {
        if (std::isnan(expected(i, j))) {
          EXPECT_TRUE(std::isnan(got(i, j)));
        } else {
          EXPECT_DOUBLE_EQ(got(i, j), expected(i, j));
        }
      }
    }
  } else {
    EXPECT_LE(DenseMatrix::MaxAbsDiff(result->ToDense(), expected), 1e-12);
  }
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

// Bitwise equality: unlike MaxAbsDiff it also tells -0.0 from +0.0 and
// one NaN payload from another.
bool SameBits(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
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

}  // namespace
}  // namespace fuseme
