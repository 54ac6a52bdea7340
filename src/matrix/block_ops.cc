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
      const Block& s = a_sparse ? a : b;
      const Block& d = a_sparse ? b : a;
      std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
      triplets.reserve(s.nnz());
      s.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
        double other = d.At(i, j);  // dense lookup: O(1)
        double out = a_sparse ? ApplyBinary(fn, v, other)
                              : ApplyBinary(fn, other, v);
        if (out != 0.0) triplets.emplace_back(i, j, out);
      });
      AddFlops(flops, s.nnz());
      return NormalizeSparse(
          SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
    }
    // Dense · dense.
    DenseMatrix out(a.rows(), a.cols());
    const DenseMatrix& da = a.dense();
    const DenseMatrix& db = b.dense();
    for (std::int64_t i = 0; i < cells; ++i) {
      out.data()[i] = da.data()[i] * db.data()[i];
    }
    AddFlops(flops, cells);
    return NormalizeDense(std::move(out));
  }

  if (fn == BinaryFn::kAdd || fn == BinaryFn::kSub) {
    if (b.is_zero()) {
      AddFlops(flops, 0);
      return a;
    }
    if (a.is_zero()) {
      AddFlops(flops, fn == BinaryFn::kSub ? b.nnz() : 0);
      return fn == BinaryFn::kAdd ? Result<Block>(b)
                                  : Unary(UnaryFn::kNeg, b, flops);
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
    // At least one dense operand: dense loop.
    DenseMatrix da = a.ToDense();
    DenseMatrix db = b.ToDense();
    DenseMatrix out(a.rows(), a.cols());
    for (std::int64_t i = 0; i < cells; ++i) {
      out.data()[i] = fn == BinaryFn::kAdd ? da.data()[i] + db.data()[i]
                                           : da.data()[i] - db.data()[i];
    }
    AddFlops(flops, cells);
    return NormalizeDense(std::move(out));
  }

  // General path (div, pow, min, max, comparisons): element-by-element with
  // full zero semantics (0/0 really is NaN).
  DenseMatrix da = a.ToDense();
  DenseMatrix db = b.ToDense();
  DenseMatrix out(a.rows(), a.cols());
  for (std::int64_t i = 0; i < cells; ++i) {
    out.data()[i] = ApplyBinary(fn, da.data()[i], db.data()[i]);
  }
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
    std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
    triplets.reserve(a.nnz());
    a.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
      double out =
          scalar_left ? ApplyBinary(fn, scalar, v) : ApplyBinary(fn, v, scalar);
      if (out != 0.0) triplets.emplace_back(i, j, out);
    });
    AddFlops(flops, a.nnz());
    return NormalizeSparse(
        SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
  }
  DenseMatrix da = a.ToDense();
  DenseMatrix out(a.rows(), a.cols());
  for (std::int64_t i = 0; i < cells; ++i) {
    out.data()[i] = scalar_left ? ApplyBinary(fn, scalar, da.data()[i])
                                : ApplyBinary(fn, da.data()[i], scalar);
  }
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
    std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
    triplets.reserve(a.nnz());
    a.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
      double out = ApplyUnary(fn, v);
      if (out != 0.0) triplets.emplace_back(i, j, out);
    });
    AddFlops(flops, a.nnz());
    return NormalizeSparse(
        SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets)));
  }
  DenseMatrix da = a.ToDense();
  DenseMatrix out(a.rows(), a.cols());
  for (std::int64_t i = 0; i < cells; ++i) {
    out.data()[i] = ApplyUnary(fn, da.data()[i]);
  }
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
  if (fn == AggFn::kSum && a.kind() == Block::Kind::kSparse) {
    DenseMatrix out(final_rows, final_cols);
    a.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
      switch (axis) {
        case ReduceAxis::kAll:
          out(0, 0) += v;
          break;
        case ReduceAxis::kRow:
          out(i, 0) += v;
          break;
        case ReduceAxis::kCol:
          out(0, j) += v;
          break;
      }
    });
    AddFlops(flops, a.nnz());
    return NormalizeDense(std::move(out));
  }

  DenseMatrix da = a.ToDense();
  DenseMatrix out(final_rows, final_cols);
  auto fold = [fn](double acc, double v) {
    switch (fn) {
      case AggFn::kSum:
        return acc + v;
      case AggFn::kMin:
        return std::min(acc, v);
      case AggFn::kMax:
        return std::max(acc, v);
    }
    return acc;
  };
  const double init = fn == AggFn::kSum ? 0.0 : da(0, 0);
  out.Fill(init);
  if (fn != AggFn::kSum) {
    // Seed row/col reductions with the first element of each slice.
    if (axis == ReduceAxis::kRow) {
      for (std::int64_t i = 0; i < a.rows(); ++i) out(i, 0) = da(i, 0);
    } else if (axis == ReduceAxis::kCol) {
      for (std::int64_t j = 0; j < a.cols(); ++j) out(0, j) = da(0, j);
    }
  }
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < a.cols(); ++j) {
      const double v = da(i, j);
      switch (axis) {
        case ReduceAxis::kAll:
          out(0, 0) = (i == 0 && j == 0 && fn != AggFn::kSum)
                          ? v
                          : fold(out(0, 0), v);
          break;
        case ReduceAxis::kRow:
          out(i, 0) = (j == 0 && fn != AggFn::kSum) ? v : fold(out(i, 0), v);
          break;
        case ReduceAxis::kCol:
          out(0, j) = (i == 0 && fn != AggFn::kSum) ? v : fold(out(0, j), v);
          break;
      }
    }
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
