// Built with -ffp-contract=off (src/matrix/CMakeLists.txt): every multiply
// and add below must round on its own, or the variants stop matching the
// portable loop bit for bit.  See gemm_kernel.h for the full contract.

#include "matrix/gemm_kernel.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/thread_pool.h"

#if FUSEME_KERNELS_X86
#include <immintrin.h>
#endif

namespace fuseme {

namespace {

// Row slabs a large product splits into over the global pool.
constexpr std::int64_t kGemmRowTile = 64;
// Below this many FLOPs the fork/join overhead beats the parallel gain.
constexpr std::int64_t kGemmParallelFlops = 1 << 23;

/// acc[i0:i1) += a[i0:i1) · b: the plain i-k-j loop every variant matches.
/// (Tiling it over k and j showed no gain at the workloads' shapes.)
void PortableRowRange(DenseMatrix* acc, const DenseMatrix& da,
                      const DenseMatrix& db, std::int64_t i_begin,
                      std::int64_t i_end) {
  const std::int64_t k = da.cols(), n = db.cols();
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    double* out_row = acc->row(i);
    const double* a_row = da.row(i);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double va = a_row[kk];
      if (va == 0.0) continue;
      const double* b_row = db.row(kk);
      for (std::int64_t j = 0; j < n; ++j) out_row[j] += va * b_row[j];
    }
  }
}

#if FUSEME_KERNELS_X86

// One register tile: rows [0, R) × columns [0, w) of c, over k rows of b.
// The tile is loaded once, updated for k ascending, and stored once.
struct Tile {
  double* c;
  std::int64_t ldc;
  const double* a;
  std::int64_t lda;
  const double* b;
  std::int64_t ldb;
  std::int64_t k;
};

// ---- AVX-512: 4 rows × 4 zmm (32 columns) = 16 accumulators. ----------

// `tail` masks the last vector's lanes for a ragged right edge; masked-off
// lanes are neither read nor written.  The zero skip is a masked add: a row
// whose a[r][kk] == 0 (either sign) leaves its accumulators untouched,
// while a NaN compares unequal to zero and propagates.
template <int R, int V>
__attribute__((target("avx512f"))) inline void Avx512Tile(const Tile& t,
                                                          __mmask8 tail) {
  __m512d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm512_maskz_loadu_pd(v == V - 1 ? tail : 0xFF,
                                        t.c + r * t.ldc + 8 * v);
    }
  }
  for (std::int64_t kk = 0; kk < t.k; ++kk) {
    const double* b_row = t.b + kk * t.ldb;
    __m512d bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_pd(v == V - 1 ? tail : 0xFF, b_row + 8 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m512d av = _mm512_set1_pd(t.a[r * t.lda + kk]);
      const __mmask8 live =
          _mm512_cmp_pd_mask(av, _mm512_setzero_pd(), _CMP_NEQ_UQ);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_mask_add_pd(acc[r][v], live, acc[r][v],
                                       _mm512_mul_pd(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_pd(t.c + r * t.ldc + 8 * v,
                            v == V - 1 ? tail : 0xFF, acc[r][v]);
    }
  }
}

template <int R>
__attribute__((target("avx512f"))) inline void Avx512Rows(const Tile& t,
                                                          std::int64_t w) {
  const int vecs = static_cast<int>((w + 7) / 8);
  const __mmask8 tail =
      static_cast<__mmask8>((1u << (w - 8 * (vecs - 1))) - 1u);
  switch (vecs) {
    case 1: Avx512Tile<R, 1>(t, tail); break;
    case 2: Avx512Tile<R, 2>(t, tail); break;
    case 3: Avx512Tile<R, 3>(t, tail); break;
    default: Avx512Tile<R, 4>(t, tail); break;
  }
}

__attribute__((target("avx512f"))) void Avx512RowRange(
    DenseMatrix* acc, const DenseMatrix& da, const DenseMatrix& db,
    std::int64_t i_begin, std::int64_t i_end) {
  const std::int64_t k = da.cols(), n = db.cols();
  for (std::int64_t j = 0; j < n; j += 32) {
    const std::int64_t w = std::min<std::int64_t>(32, n - j);
    for (std::int64_t i = i_begin; i < i_end; i += 4) {
      const Tile t{acc->row(i) + j, n, da.row(i), k, db.data() + j, n, k};
      switch (std::min<std::int64_t>(4, i_end - i)) {
        case 1: Avx512Rows<1>(t, w); break;
        case 2: Avx512Rows<2>(t, w); break;
        case 3: Avx512Rows<3>(t, w); break;
        default: Avx512Rows<4>(t, w); break;
      }
    }
  }
}

// ---- AVX2: 4 rows × 3 ymm (12 columns) = 12 accumulators. -------------
//
// Plain AVX2 has no FMA, so the compiler cannot fuse the mul and add even
// if contraction were allowed.  The last vector of a tile goes through
// vmaskmov with `tail` (-1 in live lanes), which covers a ragged right
// edge.  The zero skip is a branch per row: dense blocks rarely hold exact
// zeros, so it predicts well.
template <int R, int V>
__attribute__((target("avx2"))) inline void Avx2Tile(const Tile& t,
                                                     __m256i tail) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V - 1; ++v) {
      acc[r][v] = _mm256_loadu_pd(t.c + r * t.ldc + 4 * v);
    }
    acc[r][V - 1] = _mm256_maskload_pd(t.c + r * t.ldc + 4 * (V - 1), tail);
  }
  for (std::int64_t kk = 0; kk < t.k; ++kk) {
    const double* b_row = t.b + kk * t.ldb;
    __m256d bv[V];
#pragma GCC unroll 4
    for (int v = 0; v < V - 1; ++v) bv[v] = _mm256_loadu_pd(b_row + 4 * v);
    bv[V - 1] = _mm256_maskload_pd(b_row + 4 * (V - 1), tail);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double ar = t.a[r * t.lda + kk];
      if (ar == 0.0) continue;
      const __m256d av = _mm256_set1_pd(ar);
#pragma GCC unroll 4
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V - 1; ++v) {
      _mm256_storeu_pd(t.c + r * t.ldc + 4 * v, acc[r][v]);
    }
    _mm256_maskstore_pd(t.c + r * t.ldc + 4 * (V - 1), tail, acc[r][V - 1]);
  }
}

template <int R>
__attribute__((target("avx2"))) inline void Avx2Rows(const Tile& t,
                                                     std::int64_t w) {
  const int vecs = static_cast<int>((w + 3) / 4);
  const __m256i tail =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(w - 4 * (vecs - 1)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  switch (vecs) {
    case 1: Avx2Tile<R, 1>(t, tail); break;
    case 2: Avx2Tile<R, 2>(t, tail); break;
    default: Avx2Tile<R, 3>(t, tail); break;
  }
}

__attribute__((target("avx2"))) void Avx2RowRange(DenseMatrix* acc,
                                                  const DenseMatrix& da,
                                                  const DenseMatrix& db,
                                                  std::int64_t i_begin,
                                                  std::int64_t i_end) {
  const std::int64_t k = da.cols(), n = db.cols();
  for (std::int64_t j = 0; j < n; j += 12) {
    const std::int64_t w = std::min<std::int64_t>(12, n - j);
    for (std::int64_t i = i_begin; i < i_end; i += 4) {
      const Tile t{acc->row(i) + j, n, da.row(i), k, db.data() + j, n, k};
      switch (std::min<std::int64_t>(4, i_end - i)) {
        case 1: Avx2Rows<1>(t, w); break;
        case 2: Avx2Rows<2>(t, w); break;
        case 3: Avx2Rows<3>(t, w); break;
        default: Avx2Rows<4>(t, w); break;
      }
    }
  }
}

#endif  // FUSEME_KERNELS_X86

using RowRangeFn = void (*)(DenseMatrix*, const DenseMatrix&,
                            const DenseMatrix&, std::int64_t, std::int64_t);

RowRangeFn RowRangeFor(GemmVariant variant) {
  FUSEME_CHECK(GemmVariantSupported(variant));
  switch (variant) {
#if FUSEME_KERNELS_X86
    case GemmVariant::kAvx512:
      return Avx512RowRange;
    case GemmVariant::kAvx2:
      return Avx2RowRange;
#endif
    default:
      return PortableRowRange;
  }
}

}  // namespace

const char* GemmVariantName(GemmVariant variant) {
  switch (variant) {
    case GemmVariant::kPortable:
      return "portable";
    case GemmVariant::kAvx2:
      return "avx2";
    case GemmVariant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const std::vector<GemmVariant>& SupportedGemmVariants() {
  static const std::vector<GemmVariant> variants = [] {
    std::vector<GemmVariant> out = {GemmVariant::kPortable};
#if FUSEME_KERNELS_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) out.push_back(GemmVariant::kAvx2);
    if (__builtin_cpu_supports("avx512f")) out.push_back(GemmVariant::kAvx512);
#endif
    return out;
  }();
  return variants;
}

GemmVariant DispatchedGemmVariant() { return SupportedGemmVariants().back(); }

bool GemmVariantSupported(GemmVariant variant) {
  const std::vector<GemmVariant>& supported = SupportedGemmVariants();
  return std::find(supported.begin(), supported.end(), variant) !=
         supported.end();
}

void DenseGemmAcc(GemmVariant variant, DenseMatrix* acc, const DenseMatrix& a,
                  const DenseMatrix& b) {
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  const RowRangeFn row_range = RowRangeFor(variant);
  if (a.cols() == 0 || acc->size() == 0) return;
  const std::int64_t m = a.rows();
  const std::int64_t slabs = (m + kGemmRowTile - 1) / kGemmRowTile;
  const std::int64_t total_flops = 2 * m * a.cols() * b.cols();
  // A call issued from inside a pool worker — i.e. from a parallel
  // distributed operator — borrows only the workers idle at that moment
  // and runs inline when there are none.
  if (slabs > 1 && total_flops >= kGemmParallelFlops &&
      GlobalParallelism() > 1) {
    GlobalThreadPool()->ParallelFor(0, slabs, [&](std::int64_t slab) {
      const std::int64_t i_begin = slab * kGemmRowTile;
      row_range(acc, a, b, i_begin, std::min(m, i_begin + kGemmRowTile));
    });
  } else {
    row_range(acc, a, b, 0, m);
  }
}

}  // namespace fuseme
