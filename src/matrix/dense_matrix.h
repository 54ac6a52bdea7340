// DenseMatrix: row-major double matrix, the dense local storage format.

#ifndef FUSEME_MATRIX_DENSE_MATRIX_H_
#define FUSEME_MATRIX_DENSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace fuseme {

/// Row-major dense matrix of doubles.  Copyable and movable; copies are deep.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  DenseMatrix(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
    FUSEME_CHECK_GE(rows, 0);
    FUSEME_CHECK_GE(cols, 0);
  }
  DenseMatrix(std::int64_t rows, std::int64_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    FUSEME_CHECK_EQ(static_cast<std::int64_t>(data_.size()), rows * cols);
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }

  double operator()(std::int64_t i, std::int64_t j) const {
    return data_[i * cols_ + j];
  }
  double& operator()(std::int64_t i, std::int64_t j) {
    return data_[i * cols_ + j];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  const double* row(std::int64_t i) const { return data_.data() + i * cols_; }
  double* row(std::int64_t i) { return data_.data() + i * cols_; }

  /// Number of stored non-zero elements (exact scan).
  std::int64_t CountNonZeros() const;

  /// Fills every element with `value`.
  void Fill(double value);

  /// Returns the transpose as a new matrix.
  DenseMatrix Transposed() const;

  /// Max |a_ij - b_ij|; CHECKs shape equality.  A NaN in exactly one of
  /// a_ij, b_ij counts as +inf; NaN in both at the same position counts as
  /// equal, as do equal infinities.
  static double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

  bool operator==(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<double> data_;
};

}  // namespace fuseme

#endif  // FUSEME_MATRIX_DENSE_MATRIX_H_
