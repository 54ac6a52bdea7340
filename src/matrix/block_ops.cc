#include "matrix/block_ops.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "matrix/gemm_kernel.h"
#include "matrix/sparse_kernels.h"
#include "matrix/sparsity.h"

namespace fuseme {

namespace {

void AddFlops(std::int64_t* flops, std::int64_t amount) {
  if (flops != nullptr) *flops += amount;
}

/// Picks the storage format for a freshly computed dense result.
Block NormalizeDense(DenseMatrix m) {
  Block as_dense = Block::FromDense(std::move(m));
  if (as_dense.nnz() == 0) {
    return Block::Zero(as_dense.rows(), as_dense.cols());
  }
  if (as_dense.density() < kDenseStorageThreshold) {
    return Block::FromSparse(SparseMatrix::FromDense(as_dense.dense()));
  }
  return as_dense;
}

/// Picks the storage format for a freshly computed sparse result.
Block NormalizeSparse(SparseMatrix m) {
  if (m.nnz() == 0) return Block::Zero(m.rows(), m.cols());
  if (m.density() >= kDenseStorageThreshold) {
    return Block::FromDense(m.ToDense());
  }
  return Block::FromSparse(std::move(m));
}

Status CheckSameShape(const Block& a, const Block& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument(
        std::string(op) + ": shape mismatch " + a.ToString() + " vs " +
        b.ToString());
  }
  return Status::OK();
}

/// `a`'s values as a dense matrix: a dense block is read in place; only a
/// zero or sparse block is materialised, into *tmp.
const DenseMatrix& DenseView(const Block& a, DenseMatrix* tmp) {
  if (a.kind() == Block::Kind::kDense) return a.dense();
  *tmp = a.ToDense();
  return *tmp;
}

// The dense element-wise kernels below pick their function once per block
// (VisitBinaryFn / VisitUnaryFn) and then run one loop that applies the
// same inline definition as ApplyBinary / ApplyUnary (scalar_ops.h) to
// each cell, in index order.  Each cell is computed from its own operands
// alone, so the output is bitwise that of a per-cell ApplyBinary /
// ApplyUnary loop, while the compiler is free to vectorise the loop.

template <BinaryFn F>
void BinaryLoop(const double* __restrict x, const double* __restrict y,
                double* __restrict out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = BinaryOp<F>(x[i], y[i]);
}

template <BinaryFn F, bool kScalarLeft>
void ScalarLoop(const double* __restrict x, double s, double* __restrict out,
                std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = kScalarLeft ? BinaryOp<F>(s, x[i]) : BinaryOp<F>(x[i], s);
  }
}

template <UnaryFn F>
void UnaryLoop(const double* __restrict x, double* __restrict out,
               std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = UnaryOp<F>(x[i]);
}

/// fn(x_ij, y_ij) for every cell; x and y have the same shape.
DenseMatrix BinaryDense(BinaryFn fn, const DenseMatrix& x,
                        const DenseMatrix& y) {
  DenseMatrix out(x.rows(), x.cols());
  VisitBinaryFn(fn, [&](auto op) {
    BinaryLoop<decltype(op)::value>(x.data(), y.data(), out.data(),
                                    out.size());
  });
  return out;
}

/// fn(s, x_ij) (scalar_left) or fn(x_ij, s) for every cell.
DenseMatrix ScalarDense(BinaryFn fn, const DenseMatrix& x, double s,
                        bool scalar_left) {
  DenseMatrix out(x.rows(), x.cols());
  VisitBinaryFn(fn, [&](auto op) {
    constexpr BinaryFn kFn = decltype(op)::value;
    if (scalar_left) {
      ScalarLoop<kFn, true>(x.data(), s, out.data(), out.size());
    } else {
      ScalarLoop<kFn, false>(x.data(), s, out.data(), out.size());
    }
  });
  return out;
}

/// fn(x_ij) for every cell.
DenseMatrix UnaryDense(UnaryFn fn, const DenseMatrix& x) {
  DenseMatrix out(x.rows(), x.cols());
  VisitUnaryFn(fn, [&](auto op) {
    UnaryLoop<decltype(op)::value>(x.data(), out.data(), out.size());
  });
  return out;
}

/// The non-zero results of `value(v)` over a's stored entries, in a's
/// row-major order; `value` must map 0 to 0 (the implicit entries).
template <typename ValueFn>
Block MapStoredEntries(const SparseMatrix& a, ValueFn value) {
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  triplets.reserve(a.nnz());
  a.ForEach([&](std::int64_t i, std::int64_t j, double v) {
    const double out = value(i, j, v);
    if (out != 0.0) triplets.emplace_back(i, j, out);
  });
  return NormalizeSparse(
      SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
}

}  // namespace

Result<Block> EwiseBinary(BinaryFn fn, const Block& a, const Block& b,
                          std::int64_t* flops, SparseKernelCounts* counts) {
  FUSEME_RETURN_IF_ERROR(CheckSameShape(a, b, "EwiseBinary"));
  const std::int64_t cells = a.size();

  if (a.is_meta() || b.is_meta()) {
    std::int64_t out_nnz =
        EstimateEwiseBinaryNnz(fn, a.rows(), a.cols(), a.nnz(), b.nnz());
    if (fn == BinaryFn::kMul) {
      AddFlops(flops, std::min(a.nnz(), b.nnz()));
    } else if (fn == BinaryFn::kAdd || fn == BinaryFn::kSub) {
      AddFlops(flops, std::min(cells, a.nnz() + b.nnz()));
    } else {
      AddFlops(flops, cells);
    }
    return Block::Meta(a.rows(), a.cols(), out_nnz);
  }

  if (fn == BinaryFn::kMul) {
    if (a.is_zero() || b.is_zero()) return Block::Zero(a.rows(), a.cols());
    // Sparse side drives the iteration: only intersecting positions matter.
    const bool a_sparse = a.kind() == Block::Kind::kSparse;
    const bool b_sparse = b.kind() == Block::Kind::kSparse;
    if (a_sparse && b_sparse) {
      // Per-row sorted merge-join: O(nnz(a) + nnz(b)) instead of a binary
      // search per entry.  Charge matches the meta estimator's bound.
      std::int64_t merge_flops = 0;
      SparseMatrix out =
          EwiseMulMergeJoin(a.sparse(), b.sparse(), &merge_flops, counts);
      AddFlops(flops, merge_flops);
      return NormalizeSparse(std::move(out));
    }
    if (a_sparse || b_sparse) {
      const SparseMatrix& s = (a_sparse ? a : b).sparse();
      const DenseMatrix& d = (a_sparse ? b : a).dense();
      AddFlops(flops, s.nnz());
      return MapStoredEntries(s, [&](std::int64_t i, std::int64_t j,
                                     double v) {
        return a_sparse ? BinaryOp<BinaryFn::kMul>(v, d(i, j))
                        : BinaryOp<BinaryFn::kMul>(d(i, j), v);
      });
    }
    // Dense · dense: the dense loop below.
  } else if (fn == BinaryFn::kAdd || fn == BinaryFn::kSub) {
    if (b.is_zero()) return a;
    if (a.is_zero()) {
      if (fn == BinaryFn::kAdd) return b;
      // 0 - b is -b: one negation per stored entry of b, the meta
      // estimator's min(cells, nnz(a) + nnz(b)).
      AddFlops(flops, b.nnz());
      return Unary(UnaryFn::kNeg, b);
    }
    if (a.kind() == Block::Kind::kSparse &&
        b.kind() == Block::Kind::kSparse) {
      std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
      triplets.reserve(a.nnz() + b.nnz());
      a.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
        triplets.emplace_back(i, j, v);
      });
      const double sign = fn == BinaryFn::kSub ? -1.0 : 1.0;
      b.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
        triplets.emplace_back(i, j, sign * v);
      });
      AddFlops(flops, a.nnz() + b.nnz());
      return NormalizeSparse(
          SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
    }
    // At least one dense operand: the dense loop below.
  }

  // Dense loop: dense · dense for *, any mix with a dense operand for + and
  // -, and every other function (div, pow, min, max, comparisons) with full
  // zero semantics (0/0 really is NaN).
  DenseMatrix a_tmp, b_tmp;
  DenseMatrix out =
      BinaryDense(fn, DenseView(a, &a_tmp), DenseView(b, &b_tmp));
  AddFlops(flops, cells);
  return NormalizeDense(std::move(out));
}

Result<Block> EwiseScalar(BinaryFn fn, const Block& a, double scalar,
                          bool scalar_left, std::int64_t* flops) {
  const std::int64_t cells = a.size();
  const double zero_maps_to = scalar_left ? ApplyBinary(fn, scalar, 0.0)
                                          : ApplyBinary(fn, 0.0, scalar);
  const bool preserves_zero = zero_maps_to == 0.0;

  if (a.is_meta()) {
    AddFlops(flops, preserves_zero ? a.nnz() : cells);
    return Block::Meta(
        a.rows(), a.cols(),
        EstimateEwiseScalarNnz(fn, a.rows(), a.cols(), a.nnz(), scalar,
                               scalar_left));
  }
  if (a.is_zero()) {
    AddFlops(flops, preserves_zero ? 0 : cells);
    return Block::Constant(a.rows(), a.cols(), zero_maps_to);
  }
  if (a.kind() == Block::Kind::kSparse && preserves_zero) {
    AddFlops(flops, a.nnz());
    return VisitBinaryFn(fn, [&](auto op) {
      constexpr BinaryFn kFn = decltype(op)::value;
      return MapStoredEntries(a.sparse(), [&](std::int64_t, std::int64_t,
                                              double v) {
        return scalar_left ? BinaryOp<kFn>(scalar, v)
                           : BinaryOp<kFn>(v, scalar);
      });
    });
  }
  DenseMatrix tmp;
  DenseMatrix out = ScalarDense(fn, DenseView(a, &tmp), scalar, scalar_left);
  AddFlops(flops, cells);
  return NormalizeDense(std::move(out));
}

Result<Block> Unary(UnaryFn fn, const Block& a, std::int64_t* flops) {
  const std::int64_t cells = a.size();
  const bool preserves_zero = UnaryPreservesZero(fn);

  if (a.is_meta()) {
    AddFlops(flops, preserves_zero ? a.nnz() : cells);
    return Block::Meta(a.rows(), a.cols(),
                       EstimateUnaryNnz(fn, a.rows(), a.cols(), a.nnz()));
  }
  if (a.is_zero()) {
    AddFlops(flops, preserves_zero ? 0 : cells);
    return Block::Constant(a.rows(), a.cols(), ApplyUnary(fn, 0.0));
  }
  if (a.kind() == Block::Kind::kSparse && preserves_zero) {
    AddFlops(flops, a.nnz());
    return VisitUnaryFn(fn, [&](auto op) {
      return MapStoredEntries(
          a.sparse(), [](std::int64_t, std::int64_t, double v) {
            return UnaryOp<decltype(op)::value>(v);
          });
    });
  }
  DenseMatrix tmp;
  DenseMatrix out = UnaryDense(fn, DenseView(a, &tmp));
  AddFlops(flops, cells);
  return NormalizeDense(std::move(out));
}

Status MatMulAcc(DenseMatrix* acc, const Block& a, const Block& b,
                 std::int64_t* flops, SparseKernelCounts* counts) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("MatMulAcc: inner dimension mismatch " +
                                   a.ToString() + " x " + b.ToString());
  }
  FUSEME_CHECK_EQ(acc->rows(), a.rows());
  FUSEME_CHECK_EQ(acc->cols(), b.cols());
  if (a.is_meta() || b.is_meta()) {
    return Status::InvalidArgument(
        "MatMulAcc requires real blocks, got " + a.ToString() + " x " +
        b.ToString() + " (meta blocks carry no values to accumulate)");
  }
  if (a.is_zero() || b.is_zero()) return Status::OK();

  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  const bool a_sparse = a.kind() == Block::Kind::kSparse;
  const bool b_sparse = b.kind() == Block::Kind::kSparse;

  // The sparse paths live in sparse_kernels.cc: CSR-direct row-slab
  // kernels sharing the dense GEMM's parallel-guard shape (disjoint output
  // rows on the global pool above a flop threshold, serial per-element
  // accumulation order preserved → bitwise-identical at any thread count).
  if (a_sparse) {
    if (b_sparse) {
      SpmmAccSparseSparse(acc, a.sparse(), b.sparse(), flops, counts);
    } else {
      SpmmAccSparseDense(acc, a.sparse(), b.dense(), flops, counts);
    }
    return Status::OK();
  }
  if (b_sparse) {
    // i-outer row-streaming loop (contiguous reads of a's row, forward
    // sweeps over b's CSR); per output element the k contributions still
    // accumulate in ascending order, matching the old k-outer loop bitwise.
    SpmmAccDenseSparse(acc, a.dense(), b.sparse(), flops, counts);
    return Status::OK();
  }
  // Dense × dense: the register-blocked kernel this CPU supports best
  // (gemm_kernel.h), bitwise equal to the portable i-k-j loop and split
  // into 64-row slabs over the pool when the product is large.
  DenseGemmAcc(DispatchedGemmVariant(), acc, a.dense(), b.dense());
  AddFlops(flops, 2 * m * k * n);
  return Status::OK();
}

Result<Block> MatMul(const Block& a, const Block& b, std::int64_t* flops,
                     SparseKernelCounts* counts) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("MatMul: inner dimension mismatch " +
                                   a.ToString() + " x " + b.ToString());
  }
  if (a.is_meta() || b.is_meta()) {
    AddFlops(flops, EstimateMatMulFlops(a.rows(), a.cols(), b.cols(), a.nnz(),
                                        b.nnz()));
    return Block::Meta(
        a.rows(), b.cols(),
        EstimateMatMulNnz(a.rows(), a.cols(), b.cols(), a.nnz(), b.nnz()));
  }
  if (a.is_zero() || b.is_zero()) return Block::Zero(a.rows(), b.cols());
  DenseMatrix acc(a.rows(), b.cols());
  FUSEME_RETURN_IF_ERROR(MatMulAcc(&acc, a, b, flops, counts));
  return NormalizeDense(std::move(acc));
}

Result<Block> Transpose(const Block& a, std::int64_t* flops) {
  switch (a.kind()) {
    case Block::Kind::kMeta:
      AddFlops(flops, a.nnz());
      return Block::Meta(a.cols(), a.rows(), a.nnz());
    case Block::Kind::kZero:
      return Block::Zero(a.cols(), a.rows());
    case Block::Kind::kDense:
      AddFlops(flops, a.size());
      return Block::FromDense(a.dense().Transposed());
    case Block::Kind::kSparse:
      AddFlops(flops, a.nnz());
      return Block::FromSparse(a.sparse().Transposed());
  }
  return Status::Internal("Transpose: unknown block kind");
}

namespace {

/// Shared reduction core: reduces `a` along rows, cols, or everything.
enum class ReduceAxis { kAll, kRow, kCol };

template <AggFn F>
double Fold(double acc, double v) {
  if constexpr (F == AggFn::kSum) {
    return acc + v;
  } else if constexpr (F == AggFn::kMin) {
    return std::min(acc, v);
  } else {
    return std::max(acc, v);
  }
}

/// Reduces the dense `a` along `axis` into `out` (zero-filled, shaped for
/// the axis).  Every slice folds its elements in row-major order: a sum
/// starts from 0.0, min and max from the slice's first element.
template <AggFn F>
void ReduceDense(ReduceAxis axis, const DenseMatrix& a,
                 double* __restrict out) {
  constexpr bool kSeedFirst = F != AggFn::kSum;
  const std::int64_t rows = a.rows(), cols = a.cols();
  switch (axis) {
    case ReduceAxis::kAll: {
      const double* x = a.data();
      const std::int64_t n = a.size();
      if (n == 0) return;
      double acc = kSeedFirst ? x[0] : 0.0;
      for (std::int64_t i = kSeedFirst ? 1 : 0; i < n; ++i) {
        acc = Fold<F>(acc, x[i]);
      }
      out[0] = acc;
      return;
    }
    case ReduceAxis::kRow:
      if (cols == 0) return;
      for (std::int64_t i = 0; i < rows; ++i) {
        const double* x = a.row(i);
        double acc = kSeedFirst ? x[0] : 0.0;
        for (std::int64_t j = kSeedFirst ? 1 : 0; j < cols; ++j) {
          acc = Fold<F>(acc, x[j]);
        }
        out[i] = acc;
      }
      return;
    case ReduceAxis::kCol: {
      if (rows == 0) return;
      if (kSeedFirst) std::copy(a.row(0), a.row(0) + cols, out);
      for (std::int64_t i = kSeedFirst ? 1 : 0; i < rows; ++i) {
        const double* __restrict x = a.row(i);
        for (std::int64_t j = 0; j < cols; ++j) out[j] = Fold<F>(out[j], x[j]);
      }
      return;
    }
  }
}

Result<Block> Reduce(AggFn fn, ReduceAxis axis, const Block& a,
                     std::int64_t* flops) {
  const std::int64_t out_rows = axis == ReduceAxis::kCol ? 1 : a.rows();
  const std::int64_t out_cols = axis == ReduceAxis::kRow ? 1 : a.cols();
  const std::int64_t final_rows = axis == ReduceAxis::kAll ? 1 : out_rows;
  const std::int64_t final_cols = axis == ReduceAxis::kAll ? 1 : out_cols;

  if (a.is_meta()) {
    AddFlops(flops, std::max<std::int64_t>(a.nnz(), 1));
    // Aggregates are effectively dense vectors/scalars.
    return Block::Meta(final_rows, final_cols, final_rows * final_cols);
  }
  if (a.is_zero() && fn == AggFn::kSum) {
    return Block::Zero(final_rows, final_cols);
  }

  // kSum over sparse can skip zeros; min/max must observe implicit zeros,
  // so go through the dense view (blocks are small by construction).
  DenseMatrix out(final_rows, final_cols);
  if (fn == AggFn::kSum && a.kind() == Block::Kind::kSparse) {
    const SparseMatrix& s = a.sparse();
    double* o = out.data();
    switch (axis) {
      case ReduceAxis::kAll:
        s.ForEach([o](std::int64_t, std::int64_t, double v) { o[0] += v; });
        break;
      case ReduceAxis::kRow:
        s.ForEach([o](std::int64_t i, std::int64_t, double v) { o[i] += v; });
        break;
      case ReduceAxis::kCol:
        s.ForEach([o](std::int64_t, std::int64_t j, double v) { o[j] += v; });
        break;
    }
    AddFlops(flops, a.nnz());
    return NormalizeDense(std::move(out));
  }

  DenseMatrix tmp;
  const DenseMatrix& da = DenseView(a, &tmp);
  switch (fn) {
    case AggFn::kSum:
      ReduceDense<AggFn::kSum>(axis, da, out.data());
      break;
    case AggFn::kMin:
      ReduceDense<AggFn::kMin>(axis, da, out.data());
      break;
    case AggFn::kMax:
      ReduceDense<AggFn::kMax>(axis, da, out.data());
      break;
  }
  AddFlops(flops, a.size());
  return NormalizeDense(std::move(out));
}

}  // namespace

Result<Block> FullAgg(AggFn fn, const Block& a, std::int64_t* flops) {
  return Reduce(fn, ReduceAxis::kAll, a, flops);
}

Result<Block> RowAgg(AggFn fn, const Block& a, std::int64_t* flops) {
  return Reduce(fn, ReduceAxis::kRow, a, flops);
}

Result<Block> ColAgg(AggFn fn, const Block& a, std::int64_t* flops) {
  return Reduce(fn, ReduceAxis::kCol, a, flops);
}

Result<Block> MergeAgg(AggFn fn, const Block& a, const Block& b,
                       std::int64_t* flops) {
  switch (fn) {
    case AggFn::kSum:
      return EwiseBinary(BinaryFn::kAdd, a, b, flops);
    case AggFn::kMin:
      return EwiseBinary(BinaryFn::kMin, a, b, flops);
    case AggFn::kMax:
      return EwiseBinary(BinaryFn::kMax, a, b, flops);
  }
  return Status::Internal("MergeAgg: unknown AggFn");
}

}  // namespace fuseme
