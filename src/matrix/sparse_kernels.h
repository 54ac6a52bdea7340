// Sparsity-aware block kernels (DESIGN.md section 15).
//
// CSR-direct SpMM / SDDMM / transpose-SpMM kernels behind MatMulAcc and
// the evaluator's masked paths.  All kernels
//
//  * iterate the CSR arrays directly (row_ptr/col_idx/values) instead of
//    per-entry binary searches,
//  * parallelize over disjoint output-row slabs on the GlobalThreadPool
//    when the estimated FLOPs clear kSparseParallelFlops (mirroring the
//    dense GEMM's kGemmParallelFlops guard), and
//  * preserve the serial per-output-element accumulation order (ascending
//    k), so results are bitwise-identical for every thread count.
//
// Each kernel takes an optional caller-owned SparseKernelCounts and adds
// its calls, FLOPs, SDDMM dots and parallel launches there (null: don't
// count).  src/matrix cannot depend on telemetry, so the kernel evaluator
// carries one per work item and the distributed operators fold it into
// the fuseme_kernel_sparse_* metric families.

#ifndef FUSEME_MATRIX_SPARSE_KERNELS_H_
#define FUSEME_MATRIX_SPARSE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "matrix/block.h"
#include "matrix/dense_matrix.h"
#include "matrix/sparse_matrix.h"

namespace fuseme {

/// Below this many estimated FLOPs the fork/join overhead beats the
/// parallel gain (same crossover as the dense GEMM's guard).
inline constexpr std::int64_t kSparseParallelFlops = 1 << 23;

/// Row-slab width for the parallel sparse kernels.  Slabs are claimed
/// dynamically by ParallelFor, so nnz skew between slabs load-balances
/// without a weighted split.
inline constexpr std::int64_t kSparseRowSlab = 64;

/// Work done by the kernels below, added to by every call that is handed
/// one.  Every bump happens on the calling thread, outside the row-slab
/// loop, so a struct per caller needs no atomics.
struct SparseKernelCounts {
  std::int64_t spmm_sparse_dense_calls = 0;
  std::int64_t spmm_dense_sparse_calls = 0;
  std::int64_t spmm_sparse_sparse_calls = 0;
  std::int64_t transpose_spmm_calls = 0;
  std::int64_t sddmm_calls = 0;
  std::int64_t ewise_merge_join_calls = 0;
  /// FLOPs executed by the kernels above.
  std::int64_t flops = 0;
  /// Dot-product segments (mask non-zeros x k-blocks) evaluated by SDDMM.
  std::int64_t sddmm_dots = 0;
  /// Kernel invocations that split over the global thread pool.
  std::int64_t parallel_launches = 0;
};

/// acc += a · b for CSR a and dense b (row-parallel SpMM).  Charges
/// 2·nnz(a)·cols(b) to *flops.
void SpmmAccSparseDense(DenseMatrix* acc, const SparseMatrix& a,
                        const DenseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts = nullptr);

/// acc += a · b for dense a and CSR b.  i-outer row-streaming loop: each
/// output row streams through a's row i while expanding b's rows, so both
/// reads and writes are contiguous.  Per output element the k
/// contributions accumulate in ascending order — the same order as the
/// k-outer formulation.  Charges 2·rows(a)·nnz(b) to *flops.
void SpmmAccDenseSparse(DenseMatrix* acc, const DenseMatrix& a,
                        const SparseMatrix& b, std::int64_t* flops,
                        SparseKernelCounts* counts = nullptr);

/// acc += a · b for CSR a and CSR b (row-parallel expansion).  Charges
/// 2·(products actually formed) to *flops.
void SpmmAccSparseSparse(DenseMatrix* acc, const SparseMatrix& a,
                         const SparseMatrix& b, std::int64_t* flops,
                         SparseKernelCounts* counts = nullptr);

/// acc += aᵀ · b without materializing the transpose: a is stored
/// untransposed (rows(a) is the contraction dimension) and b is a real
/// block (dense, sparse, or zero).  Output rows — a's columns — are
/// partitioned into slabs; each slab scans a once and processes only the
/// entries whose column lands in the slab, so writes stay disjoint and
/// the per-element accumulation order (ascending k = a's row index)
/// matches what SpmmAcc* would produce on the materialized transpose.
void TransposeSpmmAcc(DenseMatrix* acc, const SparseMatrix& a,
                      const Block& b, std::int64_t* flops,
                      SparseKernelCounts* counts = nullptr);

/// SDDMM accumulation step: for each stored position (i, j) of `mask`
/// (pattern only — values are not read), adds dot(a row i, b column j) to
/// acc[p] where p is the position's CSR index in mask.  a and b are real
/// blocks with a.cols() == b.rows(); every k term is added, zeros
/// included, in ascending k order — bitwise-identical to an element-wise
/// evaluation of the product.  Callers accumulate across k-blocks by
/// invoking this once per block pair.  Charges 2·nnz(mask)·a.cols().
void SddmmAcc(const SparseMatrix& mask, const Block& a, const Block& b,
              std::vector<double>* acc, std::int64_t* flops,
              SparseKernelCounts* counts = nullptr);

/// Element-wise product of two CSR matrices by per-row sorted merge-join
/// (no per-entry binary search).  Explicit zeros in the product are
/// dropped.  Charges min(nnz(a), nnz(b)) to *flops — the intersection
/// bound the meta estimator uses.
SparseMatrix EwiseMulMergeJoin(const SparseMatrix& a, const SparseMatrix& b,
                               std::int64_t* flops,
                               SparseKernelCounts* counts = nullptr);

}  // namespace fuseme

#endif  // FUSEME_MATRIX_SPARSE_KERNELS_H_
