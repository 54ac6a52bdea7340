#include "matrix/dense_matrix.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "matrix/gemm_kernel.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

TEST(DenseMatrixTest, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.size(), 0);
}

TEST(DenseMatrixTest, ConstructZeroInitialized) {
  DenseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
  EXPECT_EQ(m.CountNonZeros(), 0);
}

TEST(DenseMatrixTest, ElementAccessRowMajor) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 2), 3);
  EXPECT_EQ(m(1, 0), 4);
  EXPECT_EQ(m(1, 2), 6);
  EXPECT_EQ(m.row(1)[1], 5);
}

TEST(DenseMatrixTest, FillAndCountNonZeros) {
  DenseMatrix m(4, 4);
  m.Fill(2.5);
  EXPECT_EQ(m.CountNonZeros(), 16);
  m(1, 1) = 0.0;
  EXPECT_EQ(m.CountNonZeros(), 15);
}

// Every CountNonZeros variant must equal the scalar `v != 0.0` count:
// NaN counts, zeros of both signs do not, and infinities and denormals
// do.  Sizes 0-17 give every tail-lane count past the 16-wide unrolled
// loop, and 1000 a long run; each size is filled several ways, from all
// zeros to no zeros.
TEST(DenseMatrixTest, CountNonZerosEveryVariant) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double small = std::numeric_limits<double>::min() / 4;  // subnormal
  const std::vector<double> values = {0.0,  -0.0,    1.5,   -2.0,
                                      nan,  -nan,    inf,   -inf,
                                      denorm, -denorm, small, -small};
  std::vector<std::int64_t> sizes;
  for (std::int64_t size = 0; size <= 17; ++size) sizes.push_back(size);
  sizes.push_back(1000);
  for (std::int64_t size : sizes) {
    // Fill f < 12 cycles through the first f + 1 values (f = 0 and 1:
    // zeros only), skipping a step every fifth element so the zeros move
    // across lanes; fill 12 has no zero but a -0.0 as its last element.
    for (std::int64_t f = 0; f <= 12; ++f) {
      DenseMatrix m(1, size);
      for (std::int64_t j = 0; j < size; ++j) {
        const std::int64_t pick = f < 12 ? (j + j / 5) % (f + 1)
                                         : (j + 1 == size ? 1 : 2 + j % 10);
        m(0, j) = values[static_cast<std::size_t>(pick)];
      }
      std::int64_t want = 0;
      for (std::int64_t j = 0; j < size; ++j) want += m(0, j) != 0.0;
      for (GemmVariant variant : SupportedGemmVariants()) {
        EXPECT_EQ(m.CountNonZeros(variant), want)
            << GemmVariantName(variant) << " at size " << size << ", fill "
            << f;
      }
      EXPECT_EQ(m.CountNonZeros(), want);
    }
  }
  // The scalar count itself: 12 values, 2 of them zeros.
  DenseMatrix cycle(1, 1200);
  for (std::int64_t j = 0; j < 1200; ++j) cycle(0, j) = values[j % 12];
  EXPECT_EQ(cycle.CountNonZeros(GemmVariant::kPortable), 1000);
}

TEST(DenseMatrixTest, Transposed) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) EXPECT_EQ(t(j, i), m(i, j));
  }
}

TEST(DenseMatrixTest, TransposeIsInvolution) {
  DenseMatrix m = RandomDense(7, 5, /*seed=*/1);
  EXPECT_EQ(m.Transposed().Transposed(), m);
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  DenseMatrix b(2, 2, {1, 2.5, 3, 3});
  EXPECT_DOUBLE_EQ(DenseMatrix::MaxAbsDiff(a, b), 1.0);
  EXPECT_DOUBLE_EQ(DenseMatrix::MaxAbsDiff(a, a), 0.0);
}

// A NaN on one side must never read as "no difference": every
// `MaxAbsDiff(...) == 0` check in the suite relies on this.
TEST(DenseMatrixTest, MaxAbsDiffSeesNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DenseMatrix zeros(2, 2);
  DenseMatrix one_nan(2, 2, {0, 0, nan, 0});
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(one_nan, zeros), inf);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(zeros, one_nan), inf);
  // NaN at a later position than a finite difference still wins.
  DenseMatrix late_nan(2, 2, {1, 0, 0, nan});
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(late_nan, zeros), inf);

  // NaN in both at the same position is equal there; other cells count.
  DenseMatrix both(2, 2, {0.5, 0, nan, 0});
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(both, one_nan), 0.5);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(one_nan, one_nan), 0.0);

  // Equal infinities do not differ; opposite ones, or one finite, do.
  DenseMatrix pos_inf(1, 2, {inf, 1});
  DenseMatrix neg_inf(1, 2, {-inf, 1});
  DenseMatrix finite(1, 2, {3, 1});
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(pos_inf, pos_inf), 0.0);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(pos_inf, neg_inf), inf);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(pos_inf, finite), inf);
}

TEST(DenseMatrixTest, EqualityIsDeep) {
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  DenseMatrix b(2, 2, {1, 2, 3, 4});
  DenseMatrix c(2, 2, {1, 2, 3, 5});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(DenseMatrixTest, RandomDenseIsDeterministicPerSeed) {
  DenseMatrix a = RandomDense(5, 5, 42);
  DenseMatrix b = RandomDense(5, 5, 42);
  DenseMatrix c = RandomDense(5, 5, 43);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(DenseMatrixTest, RandomDenseRespectsRange) {
  DenseMatrix m = RandomDense(10, 10, 7, /*lo=*/2.0, /*hi=*/3.0);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], 2.0);
    EXPECT_LE(m.data()[i], 3.0);
  }
}

}  // namespace
}  // namespace fuseme
