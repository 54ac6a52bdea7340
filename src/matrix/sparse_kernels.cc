// Built with -ffp-contract=off (src/matrix/CMakeLists.txt): the vector
// SpMM variants must round every multiply and add on its own to stay
// bitwise equal to the portable loops.

#include "matrix/sparse_kernels.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"

#if FUSEME_KERNELS_X86
#include <immintrin.h>
#endif

namespace fuseme {

namespace {

void AddFlops(std::int64_t* flops, SparseKernelCounts* counts,
              std::int64_t amount) {
  if (flops != nullptr) *flops += amount;
  if (counts != nullptr) counts->flops += amount;
}

/// Runs `range(i0, i1)` over [0, rows) — split into kSparseRowSlab slabs
/// on the global pool when `est_flops` clears the threshold, serially (as
/// one range) otherwise.  Ranges are disjoint, and every kernel below
/// keeps the serial per-row order inside a range, so the output is
/// bitwise-identical either way.  A call issued from inside a pool worker
/// (a parallel distributed operator) borrows only idle workers and runs
/// inline when there are none, like the dense GEMM.
void ForRowSlabs(std::int64_t rows, std::int64_t est_flops,
                 SparseKernelCounts* counts,
                 const std::function<void(std::int64_t, std::int64_t)>& range) {
  const std::int64_t slabs = (rows + kSparseRowSlab - 1) / kSparseRowSlab;
  if (slabs > 1 && est_flops >= kSparseParallelFlops &&
      GlobalParallelism() > 1) {
    if (counts != nullptr) ++counts->parallel_launches;
    GlobalThreadPool()->ParallelFor(0, slabs, [&](std::int64_t slab) {
      const std::int64_t i0 = slab * kSparseRowSlab;
      range(i0, std::min(rows, i0 + kSparseRowSlab));
    });
    return;
  }
  range(0, rows);
}

/// acc[i0:i1) += a[i0:i1) · b for CSR a: the portable row-axpy loop.
void PortableSparseDenseRows(DenseMatrix* acc, const SparseMatrix& a,
                             const DenseMatrix& b, std::int64_t i0,
                             std::int64_t i1) {
  const std::int64_t n = b.cols();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  for (std::int64_t i = i0; i < i1; ++i) {
    double* out = acc->row(i);
    for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
      const double va = vals[p];
      const double* b_row = b.row(ci[p]);
      for (std::int64_t j = 0; j < n; ++j) out[j] += va * b_row[j];
    }
  }
}

/// acc[i0:i1) += a[i0:i1) · b for CSR b: the portable i-outer loop.
void PortableDenseSparseRows(DenseMatrix* acc, const DenseMatrix& a,
                             const SparseMatrix& b, std::int64_t i0,
                             std::int64_t i1) {
  const std::int64_t k = a.cols();
  const auto& rp = b.row_ptr();
  const auto& ci = b.col_idx();
  const auto& vals = b.values();
  for (std::int64_t i = i0; i < i1; ++i) {
    double* out = acc->row(i);
    const double* a_row = a.row(i);
    // Zero a-entries are multiplied through, not skipped: skipping could
    // flip a -0.0 accumulator to +0.0 or drop a NaN/Inf propagation,
    // breaking bitwise parity with the k-outer formulation.
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const double va = a_row[kk];
      for (std::int64_t p = rp[kk]; p < rp[kk + 1]; ++p) {
        out[ci[p]] += va * vals[p];
      }
    }
  }
}

#if FUSEME_KERNELS_X86

// ---- AVX-512 SpMM, CSR × dense: a register strip of the output row. ----

// out[0, 8·V) += Σ_{p0 ≤ p < p1} vals[p] · b[ci[p]][0, 8·V), ascending p:
// the strip is loaded once, updated by every non-zero of the row, and
// stored once.  `tail` masks the last vector's lanes for a ragged right
// edge; masked-off lanes are neither read nor written.
template <int V>
__attribute__((target("avx512f"))) inline void Avx512AxpyStrip(
    double* out, const double* b, std::int64_t ldb, const std::int64_t* ci,
    const double* vals, std::int64_t p0, std::int64_t p1, __mmask8 tail) {
  __m512d acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    acc[v] = _mm512_maskz_loadu_pd(v == V - 1 ? tail : 0xFF, out + 8 * v);
  }
  for (std::int64_t p = p0; p < p1; ++p) {
    const __m512d va = _mm512_set1_pd(vals[p]);
    const double* b_row = b + ci[p] * ldb;
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const __m512d bv =
          _mm512_maskz_loadu_pd(v == V - 1 ? tail : 0xFF, b_row + 8 * v);
      acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(va, bv));
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    _mm512_mask_storeu_pd(out + 8 * v, v == V - 1 ? tail : 0xFF, acc[v]);
  }
}

__attribute__((target("avx512f"))) void Avx512SparseDenseRows(
    DenseMatrix* acc, const SparseMatrix& a, const DenseMatrix& b,
    std::int64_t i0, std::int64_t i1) {
  const std::int64_t n = b.cols();
  const std::int64_t* rp = a.row_ptr().data();
  const std::int64_t* ci = a.col_idx().data();
  const double* vals = a.values().data();
  for (std::int64_t i = i0; i < i1; ++i) {
    if (rp[i] == rp[i + 1]) continue;
    double* out = acc->row(i);
    for (std::int64_t j = 0; j < n; j += 32) {
      const std::int64_t w = std::min<std::int64_t>(32, n - j);
      const int vecs = static_cast<int>((w + 7) / 8);
      const __mmask8 tail =
          static_cast<__mmask8>((1u << (w - 8 * (vecs - 1))) - 1u);
      const double* b_strip = b.data() + j;
      switch (vecs) {
        case 1:
          Avx512AxpyStrip<1>(out + j, b_strip, n, ci, vals, rp[i], rp[i + 1],
                             tail);
          break;
        case 2:
          Avx512AxpyStrip<2>(out + j, b_strip, n, ci, vals, rp[i], rp[i + 1],
                             tail);
          break;
        case 3:
          Avx512AxpyStrip<3>(out + j, b_strip, n, ci, vals, rp[i], rp[i + 1],
                             tail);
          break;
        default:
          Avx512AxpyStrip<4>(out + j, b_strip, n, ci, vals, rp[i], rp[i + 1],
                             tail);
          break;
      }
    }
  }
}

// ---- AVX-512 SpMM, dense × CSR: 8 output rows interleaved. -------------

// Transposes the 8×8 tile r in registers: afterwards r[c] holds what was
// column c.  Pairs are interleaved first (unpack), then 128-bit and
// 256-bit halves are regrouped (shuffle_f64x2).  The all-lanes maskz
// forms compile to the same unmasked instructions as the plain
// intrinsics, whose GCC 12 definitions pass an "undefined" vector that
// -Wmaybe-uninitialized reports once inlined here.
__attribute__((target("avx512f"))) inline void Transpose8x8(__m512d r[8]) {
  constexpr __mmask8 kAll = 0xFF;
  __m512d t[8];
#pragma GCC unroll 4
  for (int x = 0; x < 8; x += 2) {
    t[x] = _mm512_maskz_unpacklo_pd(kAll, r[x], r[x + 1]);
    t[x + 1] = _mm512_maskz_unpackhi_pd(kAll, r[x], r[x + 1]);
  }
  // u[0..3]: rows 0-3 regrouped; u[4..7]: rows 4-7.
  __m512d u[8];
#pragma GCC unroll 2
  for (int h = 0; h < 8; h += 4) {
    u[h + 0] = _mm512_maskz_shuffle_f64x2(kAll, t[h], t[h + 2], 0x88);
    u[h + 1] = _mm512_maskz_shuffle_f64x2(kAll, t[h], t[h + 2], 0xDD);
    u[h + 2] = _mm512_maskz_shuffle_f64x2(kAll, t[h + 1], t[h + 3], 0x88);
    u[h + 3] = _mm512_maskz_shuffle_f64x2(kAll, t[h + 1], t[h + 3], 0xDD);
  }
  r[0] = _mm512_maskz_shuffle_f64x2(kAll, u[0], u[4], 0x88);
  r[1] = _mm512_maskz_shuffle_f64x2(kAll, u[2], u[6], 0x88);
  r[2] = _mm512_maskz_shuffle_f64x2(kAll, u[1], u[5], 0x88);
  r[3] = _mm512_maskz_shuffle_f64x2(kAll, u[3], u[7], 0x88);
  r[4] = _mm512_maskz_shuffle_f64x2(kAll, u[0], u[4], 0xDD);
  r[5] = _mm512_maskz_shuffle_f64x2(kAll, u[2], u[6], 0xDD);
  r[6] = _mm512_maskz_shuffle_f64x2(kAll, u[1], u[5], 0xDD);
  r[7] = _mm512_maskz_shuffle_f64x2(kAll, u[3], u[7], 0xDD);
}

// panel[c][x] = src[x][c] for x < rows, c < cols (both at most 8), where
// src rows are `ld` apart; the lanes of missing rows are zero.
__attribute__((target("avx512f"))) inline void PackTile(const double* src,
                                                        std::int64_t ld,
                                                        int rows, int cols,
                                                        double* panel) {
  const __mmask8 live = static_cast<__mmask8>((1u << cols) - 1u);
  __m512d r[8];
#pragma GCC unroll 8
  for (int x = 0; x < 8; ++x) {
    r[x] = x < rows ? _mm512_maskz_loadu_pd(live, src + x * ld)
                    : _mm512_setzero_pd();
  }
  Transpose8x8(r);
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    if (c < cols) _mm512_store_pd(panel + 8 * c, r[c]);
  }
}

// The inverse of PackTile: dst[x][c] = panel[c][x] for x < rows,
// c < cols; nothing else of dst is written.
__attribute__((target("avx512f"))) inline void UnpackTile(const double* panel,
                                                          int rows, int cols,
                                                          double* dst,
                                                          std::int64_t ld) {
  const __mmask8 live = static_cast<__mmask8>((1u << cols) - 1u);
  __m512d r[8];
#pragma GCC unroll 8
  for (int c = 0; c < 8; ++c) {
    r[c] = c < cols ? _mm512_load_pd(panel + 8 * c) : _mm512_setzero_pd();
  }
  Transpose8x8(r);
#pragma GCC unroll 8
  for (int x = 0; x < 8; ++x) {
    if (x < rows) _mm512_mask_storeu_pd(dst + x * ld, live, r[x]);
  }
}

// Lane x of every panel vector belongs to output row i + x.  For each
// output element the contributions still arrive in ascending k, each a
// rounded multiply then a rounded add, exactly as in the portable loop;
// the lanes of rows past i1 compute on zeros and are never stored.
__attribute__((target("avx512f"))) void Avx512DenseSparseRows(
    DenseMatrix* acc, const DenseMatrix& a, const SparseMatrix& b,
    std::int64_t i0, std::int64_t i1) {
  if (b.nnz() == 0) return;
  const std::int64_t k = a.cols(), n = b.cols();
  const std::int64_t* rp = b.row_ptr().data();
  const std::int64_t* ci = b.col_idx().data();
  const double* vals = b.values().data();
  // a's 8 rows as a k×8 panel, then acc's 8 rows as an n×8 buffer, both
  // 64-byte aligned so every 8-lane vector is one cache line.
  const std::unique_ptr<double[]> scratch(new double[8 * (k + n) + 8]);
  double* const a_panel = reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(scratch.get()) + 63) &
      ~std::uintptr_t{63});
  double* const out = a_panel + 8 * k;
  for (std::int64_t i = i0; i < i1; i += 8) {
    const int rows = static_cast<int>(std::min<std::int64_t>(8, i1 - i));
    for (std::int64_t kk = 0; kk < k; kk += 8) {
      PackTile(a.row(i) + kk, k, rows,
               static_cast<int>(std::min<std::int64_t>(8, k - kk)),
               a_panel + 8 * kk);
    }
    for (std::int64_t j = 0; j < n; j += 8) {
      PackTile(acc->row(i) + j, n, rows,
               static_cast<int>(std::min<std::int64_t>(8, n - j)),
               out + 8 * j);
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m512d va = _mm512_load_pd(a_panel + 8 * kk);
      for (std::int64_t p = rp[kk]; p < rp[kk + 1]; ++p) {
        double* const o = out + 8 * ci[p];
        _mm512_store_pd(o, _mm512_add_pd(_mm512_load_pd(o),
                                         _mm512_mul_pd(
                                             va, _mm512_set1_pd(vals[p]))));
      }
    }
    for (std::int64_t j = 0; j < n; j += 8) {
      UnpackTile(out + 8 * j, rows,
                 static_cast<int>(std::min<std::int64_t>(8, n - j)),
                 acc->row(i) + j, n);
    }
  }
}

#endif  // FUSEME_KERNELS_X86

}  // namespace

void SpmmAccSparseDense(GemmVariant variant, DenseMatrix* acc,
                        const SparseMatrix& a, const DenseMatrix& b,
                        std::int64_t* flops, SparseKernelCounts* counts) {
  FUSEME_CHECK(GemmVariantSupported(variant));
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (counts != nullptr) ++counts->spmm_sparse_dense_calls;
  const std::int64_t total = 2 * a.nnz() * b.cols();
  auto rows = PortableSparseDenseRows;
#if FUSEME_KERNELS_X86
  if (variant == GemmVariant::kAvx512) rows = Avx512SparseDenseRows;
#endif
  ForRowSlabs(a.rows(), total, counts, [&](std::int64_t i0, std::int64_t i1) {
    rows(acc, a, b, i0, i1);
  });
  AddFlops(flops, counts, total);
}

void SpmmAccSparseDense(DenseMatrix* acc, const SparseMatrix& a,
                        const DenseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts) {
  SpmmAccSparseDense(DispatchedGemmVariant(), acc, a, b, flops, counts);
}

void SpmmAccDenseSparse(GemmVariant variant, DenseMatrix* acc,
                        const DenseMatrix& a, const SparseMatrix& b,
                        std::int64_t* flops, SparseKernelCounts* counts) {
  FUSEME_CHECK(GemmVariantSupported(variant));
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (counts != nullptr) ++counts->spmm_dense_sparse_calls;
  const std::int64_t total = 2 * a.rows() * b.nnz();
  auto rows = PortableDenseSparseRows;
#if FUSEME_KERNELS_X86
  if (variant == GemmVariant::kAvx512) rows = Avx512DenseSparseRows;
#endif
  ForRowSlabs(a.rows(), total, counts, [&](std::int64_t i0, std::int64_t i1) {
    rows(acc, a, b, i0, i1);
  });
  AddFlops(flops, counts, total);
}

void SpmmAccDenseSparse(DenseMatrix* acc, const DenseMatrix& a,
                        const SparseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts) {
  SpmmAccDenseSparse(DispatchedGemmVariant(), acc, a, b, flops, counts);
}

void SpmmAccSparseSparse(DenseMatrix* acc, const SparseMatrix& a,
                         const SparseMatrix& b, std::int64_t* flops,
                         SparseKernelCounts* counts) {
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (counts != nullptr) ++counts->spmm_sparse_sparse_calls;
  const auto& arp = a.row_ptr();
  const auto& aci = a.col_idx();
  const auto& av = a.values();
  const auto& brp = b.row_ptr();
  const auto& bci = b.col_idx();
  const auto& bv = b.values();
  // The product count is a pure function of the two patterns, so it can be
  // charged without per-slab counters.
  std::int64_t products = 0;
  for (std::int64_t p = 0; p < a.nnz(); ++p) {
    products += brp[aci[p] + 1] - brp[aci[p]];
  }
  ForRowSlabs(a.rows(), 2 * products, counts,
              [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double* out = acc->row(i);
      for (std::int64_t p = arp[i]; p < arp[i + 1]; ++p) {
        const double va = av[p];
        const std::int64_t kk = aci[p];
        for (std::int64_t pb = brp[kk]; pb < brp[kk + 1]; ++pb) {
          out[bci[pb]] += va * bv[pb];
        }
      }
    }
  });
  AddFlops(flops, counts, 2 * products);
}

void TransposeSpmmAcc(DenseMatrix* acc, const SparseMatrix& a,
                      const Block& b, std::int64_t* flops,
                      SparseKernelCounts* counts) {
  FUSEME_CHECK(b.is_real());
  FUSEME_CHECK_EQ(a.rows(), b.rows());  // contraction dimension
  FUSEME_CHECK_EQ(acc->rows(), a.cols());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (b.is_zero() || a.nnz() == 0) return;
  if (counts != nullptr) ++counts->transpose_spmm_calls;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  const bool b_dense = b.kind() == Block::Kind::kDense;

  std::int64_t total;
  if (b_dense) {
    total = 2 * a.nnz() * b.cols();
  } else {
    const auto& brp = b.sparse().row_ptr();
    total = 0;
    for (std::int64_t kk = 0; kk < a.rows(); ++kk) {
      total += 2 * (rp[kk + 1] - rp[kk]) * (brp[kk + 1] - brp[kk]);
    }
  }

  // Each slab owns output rows [o0, o1) — a's *columns* — and scans a once,
  // processing only the entries that land in its slab.  For one output
  // element the contributions arrive in ascending a-row (= k) order, the
  // same order a materialized-transpose SpMM would produce.
  auto range = [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t kk = 0; kk < a.rows(); ++kk) {
      for (std::int64_t p = rp[kk]; p < rp[kk + 1]; ++p) {
        const std::int64_t i = ci[p];
        if (i < o0 || i >= o1) continue;
        const double va = vals[p];
        double* out = acc->row(i);
        if (b_dense) {
          const double* b_row = b.dense().row(kk);
          const std::int64_t n = b.cols();
          for (std::int64_t j = 0; j < n; ++j) out[j] += va * b_row[j];
        } else {
          const SparseMatrix& sb = b.sparse();
          for (std::int64_t pb = sb.row_ptr()[kk]; pb < sb.row_ptr()[kk + 1];
               ++pb) {
            out[sb.col_idx()[pb]] += va * sb.values()[pb];
          }
        }
      }
    }
  };
  ForRowSlabs(acc->rows(), total, counts, range);
  AddFlops(flops, counts, total);
}

void SddmmAcc(const SparseMatrix& mask, const Block& a, const Block& b,
              std::vector<double>* acc, std::int64_t* flops,
              SparseKernelCounts* counts) {
  FUSEME_CHECK(a.is_real() && b.is_real());
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(mask.rows(), a.rows());
  FUSEME_CHECK_EQ(mask.cols(), b.cols());
  FUSEME_CHECK_EQ(static_cast<std::int64_t>(acc->size()), mask.nnz());
  if (counts != nullptr) {
    ++counts->sddmm_calls;
    counts->sddmm_dots += mask.nnz();
  }
  const std::int64_t kdim = a.cols();
  const std::int64_t total = 2 * mask.nnz() * kdim;
  const auto& rp = mask.row_ptr();
  const auto& ci = mask.col_idx();
  const bool both_dense = a.kind() == Block::Kind::kDense &&
                          b.kind() == Block::Kind::kDense;
  // Every k term is added, zeros included, ascending — bitwise-identical
  // to summing At(i,k)·At(k,j) element by element.
  auto range = [&](std::int64_t i0, std::int64_t i1) {
    if (both_dense) {
      const DenseMatrix& da = a.dense();
      const DenseMatrix& db = b.dense();
      const std::int64_t ldb = db.cols();
      for (std::int64_t i = i0; i < i1; ++i) {
        const double* a_row = da.row(i);
        for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
          const double* b_col = db.row(0) + ci[p];
          double s = (*acc)[static_cast<std::size_t>(p)];
          for (std::int64_t kk = 0; kk < kdim; ++kk) {
            s += a_row[kk] * b_col[kk * ldb];
          }
          (*acc)[static_cast<std::size_t>(p)] = s;
        }
      }
      return;
    }
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
        const std::int64_t j = ci[p];
        double s = (*acc)[static_cast<std::size_t>(p)];
        for (std::int64_t kk = 0; kk < kdim; ++kk) {
          s += a.At(i, kk) * b.At(kk, j);
        }
        (*acc)[static_cast<std::size_t>(p)] = s;
      }
    }
  };
  ForRowSlabs(mask.rows(), total, counts, range);
  AddFlops(flops, counts, total);
}

SparseMatrix EwiseMulMergeJoin(const SparseMatrix& a, const SparseMatrix& b,
                               std::int64_t* flops,
                               SparseKernelCounts* counts) {
  FUSEME_CHECK_EQ(a.rows(), b.rows());
  FUSEME_CHECK_EQ(a.cols(), b.cols());
  if (counts != nullptr) ++counts->ewise_merge_join_calls;
  const auto& arp = a.row_ptr();
  const auto& aci = a.col_idx();
  const auto& av = a.values();
  const auto& brp = b.row_ptr();
  const auto& bci = b.col_idx();
  const auto& bv = b.values();
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<std::int64_t> col_idx;
  std::vector<double> values;
  const std::int64_t bound = std::min(a.nnz(), b.nnz());
  col_idx.reserve(static_cast<std::size_t>(bound));
  values.reserve(static_cast<std::size_t>(bound));
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    std::int64_t pa = arp[i], pb = brp[i];
    const std::int64_t ae = arp[i + 1], be = brp[i + 1];
    while (pa < ae && pb < be) {
      const std::int64_t ja = aci[pa], jb = bci[pb];
      if (ja < jb) {
        ++pa;
      } else if (jb < ja) {
        ++pb;
      } else {
        const double prod = av[pa] * bv[pb];
        if (prod != 0.0) {
          col_idx.push_back(ja);
          values.push_back(prod);
        }
        ++pa;
        ++pb;
      }
    }
    row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int64_t>(col_idx.size());
  }
  AddFlops(flops, counts, bound);
  return SparseMatrix::FromCsr(a.rows(), a.cols(), std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

}  // namespace fuseme
