// Built with -ffp-contract=off like every TU that holds intrinsics
// (src/matrix/CMakeLists.txt); gemm_kernel.h describes the dispatch.

#include "matrix/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "matrix/gemm_kernel.h"

#if FUSEME_KERNELS_X86
#include <immintrin.h>
#endif

namespace fuseme {

namespace {

std::int64_t PortableCountNonZeros(const double* data, std::int64_t n) {
  std::int64_t nnz = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (data[i] != 0.0) ++nnz;
  }
  return nnz;
}

#if FUSEME_KERNELS_X86

// _CMP_NEQ_UQ is `v != 0.0`: true for NaN (unordered), false for both
// zeros.  Each lane of a counter adds one per element it found non-zero;
// two counters keep the loop from waiting on its own adds.  Masked-off
// tail lanes are neither read nor counted.
__attribute__((target("avx512f"))) std::int64_t Avx512CountNonZeros(
    const double* data, std::int64_t n) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512i one = _mm512_set1_epi64(1);
  __m512i count0 = _mm512_setzero_si512();
  __m512i count1 = _mm512_setzero_si512();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask8 live0 = _mm512_cmp_pd_mask(_mm512_loadu_pd(data + i),
                                              zero, _CMP_NEQ_UQ);
    const __mmask8 live1 = _mm512_cmp_pd_mask(_mm512_loadu_pd(data + i + 8),
                                              zero, _CMP_NEQ_UQ);
    count0 = _mm512_mask_add_epi64(count0, live0, count0, one);
    count1 = _mm512_mask_add_epi64(count1, live1, count1, one);
  }
  for (; i < n; i += 8) {
    const __mmask8 tail = static_cast<__mmask8>(
        n - i >= 8 ? 0xFF : (1u << (n - i)) - 1u);
    const __mmask8 live = _mm512_mask_cmp_pd_mask(
        tail, _mm512_maskz_loadu_pd(tail, data + i), zero, _CMP_NEQ_UQ);
    count0 = _mm512_mask_add_epi64(count0, live, count0, one);
  }
  // A store and a scalar sum, not _mm512_reduce_add_epi64: GCC 12's
  // version reads an "undefined" vector that -Werror=uninitialized flags.
  alignas(64) std::int64_t lanes[8];
  _mm512_store_si512(lanes, _mm512_add_epi64(count0, count1));
  std::int64_t nnz = 0;
  for (std::int64_t lane : lanes) nnz += lane;
  return nnz;
}

#endif  // FUSEME_KERNELS_X86

}  // namespace

std::int64_t DenseMatrix::CountNonZeros() const {
  return CountNonZeros(DispatchedGemmVariant());
}

std::int64_t DenseMatrix::CountNonZeros(GemmVariant variant) const {
  FUSEME_CHECK(GemmVariantSupported(variant));
#if FUSEME_KERNELS_X86
  if (variant == GemmVariant::kAvx512) {
    return Avx512CountNonZeros(data_.data(), size());
  }
#endif
  return PortableCountNonZeros(data_.data(), size());
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
