// Block-level local kernels: the "local operation step" primitives.
//
// Every kernel works on real blocks (zero/dense/sparse) *and* meta blocks:
// with a meta input, the output is a meta block whose nnz comes from the
// sparsity estimators and whose cost still lands in `flops`.  This lets the
// physical operators (BFO/RFO/CFO) execute unchanged in real mode and in
// the analytic simulator.
//
// All kernels accept an optional `flops` accumulator; when non-null, the
// number of floating-point operations performed (or, for meta blocks,
// estimated) is added to it.  The kernels that can route through the
// sparse kernel layer (EwiseBinary, MatMul, MatMulAcc) also take an
// optional SparseKernelCounts (sparse_kernels.h) that those calls add to.

#ifndef FUSEME_MATRIX_BLOCK_OPS_H_
#define FUSEME_MATRIX_BLOCK_OPS_H_

#include <cstdint>

#include "common/result.h"
#include "matrix/block.h"
#include "matrix/scalar_ops.h"

namespace fuseme {

struct SparseKernelCounts;

/// Element-wise binary op; shapes must match exactly.
Result<Block> EwiseBinary(BinaryFn fn, const Block& a, const Block& b,
                          std::int64_t* flops = nullptr,
                          SparseKernelCounts* counts = nullptr);

/// Element-wise op against a scalar.  `scalar_left` selects fn(s, a_ij)
/// versus fn(a_ij, s).
Result<Block> EwiseScalar(BinaryFn fn, const Block& a, double scalar,
                          bool scalar_left, std::int64_t* flops = nullptr);

/// Element-wise unary op.
Result<Block> Unary(UnaryFn fn, const Block& a,
                    std::int64_t* flops = nullptr);

/// Matrix multiplication a(m×k) · b(k×n).
Result<Block> MatMul(const Block& a, const Block& b,
                     std::int64_t* flops = nullptr,
                     SparseKernelCounts* counts = nullptr);

/// acc += a·b with a dense accumulator — used for k-axis aggregation of
/// partial products.  Shapes must match acc (CHECKed).
Status MatMulAcc(DenseMatrix* acc, const Block& a, const Block& b,
                 std::int64_t* flops = nullptr,
                 SparseKernelCounts* counts = nullptr);

/// Transpose (reorganization operator r(T)).
Result<Block> Transpose(const Block& a, std::int64_t* flops = nullptr);

/// Full aggregation to a 1×1 block (ua(sum) etc.).
Result<Block> FullAgg(AggFn fn, const Block& a,
                      std::int64_t* flops = nullptr);

/// Row aggregation to rows×1 (rowSums etc.).
Result<Block> RowAgg(AggFn fn, const Block& a,
                     std::int64_t* flops = nullptr);

/// Column aggregation to 1×cols (colSums etc.).
Result<Block> ColAgg(AggFn fn, const Block& a,
                     std::int64_t* flops = nullptr);

/// Combines two partial aggregates of identical shape (the "matrix
/// aggregation step" of a distributed operator): sum adds, min/max fold.
Result<Block> MergeAgg(AggFn fn, const Block& a, const Block& b,
                       std::int64_t* flops = nullptr);

}  // namespace fuseme

#endif  // FUSEME_MATRIX_BLOCK_OPS_H_
