#include "matrix/sparse_kernels.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/thread_pool.h"

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

}  // namespace

void SpmmAccSparseDense(DenseMatrix* acc, const SparseMatrix& a,
                        const DenseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts) {
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (counts != nullptr) ++counts->spmm_sparse_dense_calls;
  const std::int64_t n = b.cols();
  const std::int64_t total = 2 * a.nnz() * n;
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  ForRowSlabs(a.rows(), total, counts, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double* out = acc->row(i);
      for (std::int64_t p = rp[i]; p < rp[i + 1]; ++p) {
        const double va = vals[p];
        const double* b_row = b.row(ci[p]);
        for (std::int64_t j = 0; j < n; ++j) out[j] += va * b_row[j];
      }
    }
  });
  AddFlops(flops, counts, total);
}

void SpmmAccDenseSparse(DenseMatrix* acc, const DenseMatrix& a,
                        const SparseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts) {
  FUSEME_CHECK_EQ(a.cols(), b.rows());
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (counts != nullptr) ++counts->spmm_dense_sparse_calls;
  const std::int64_t k = a.cols();
  const std::int64_t total = 2 * a.rows() * b.nnz();
  const auto& rp = b.row_ptr();
  const auto& ci = b.col_idx();
  const auto& vals = b.values();
  ForRowSlabs(a.rows(), total, counts, [&](std::int64_t i0, std::int64_t i1) {
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
  });
  AddFlops(flops, counts, total);
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
