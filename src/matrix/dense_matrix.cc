#include "matrix/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fuseme {

std::int64_t DenseMatrix::CountNonZeros() const {
  std::int64_t nnz = 0;
  for (double v : data_) {
    if (v != 0.0) ++nnz;
  }
  return nnz;
}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::int64_t i = 0; i < rows_; ++i) {
    for (std::int64_t j = 0; j < cols_; ++j) {
      out(j, i) = (*this)(i, j);
    }
  }
  return out;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  FUSEME_CHECK_EQ(a.rows(), b.rows());
  FUSEME_CHECK_EQ(a.cols(), b.cols());
  double max_diff = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i], y = b.data()[i];
    const bool x_nan = std::isnan(x), y_nan = std::isnan(y);
    if (x_nan != y_nan) return std::numeric_limits<double>::infinity();
    // Both NaN, or equal (which includes the same infinity, whose
    // difference would be NaN): nothing differs here.
    if (x_nan || x == y) continue;
    max_diff = std::max(max_diff, std::fabs(x - y));
  }
  return max_diff;
}

}  // namespace fuseme
