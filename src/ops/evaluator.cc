#include "ops/evaluator.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "matrix/block_ops.h"
#include "matrix/sparse_kernels.h"

namespace fuseme {

KernelEvaluator::KernelEvaluator(const PartialPlan* plan,
                                 std::int64_t block_size,
                                 BlockFetcher fetcher)
    : plan_(plan), block_size_(block_size), fetcher_(std::move(fetcher)) {
  FUSEME_CHECK(plan_ != nullptr);
  FUSEME_CHECK_GT(block_size_, 0);
}

void KernelEvaluator::RestrictK(NodeId mm, std::int64_t k_begin,
                                std::int64_t k_end) {
  restricted_mm_ = mm;
  k_begin_ = k_begin;
  k_end_ = k_end;
}

void KernelEvaluator::Inject(NodeId node, std::int64_t bi, std::int64_t bj,
                             Block block) {
  injected_[{node, bi, bj}] = std::move(block);
}

void KernelEvaluator::ClearCache() { cache_.clear(); }

NodeGrid KernelEvaluator::Grid(NodeId node) const {
  const Node& n = plan_->dag().node(node);
  return NodeGrid{n.rows, n.cols, block_size_};
}

Result<Block> KernelEvaluator::Eval(NodeId node, std::int64_t bi,
                                    std::int64_t bj) {
  const Key key{node, bi, bj};
  if (auto it = injected_.find(key); it != injected_.end()) {
    return it->second;
  }
  if (auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  Result<Block> result = EvalUncached(node, bi, bj);
  if (result.ok()) {
    cache_[key] = *result;
  }
  return result;
}

Result<Block> KernelEvaluator::EvalUncached(NodeId node, std::int64_t bi,
                                            std::int64_t bj) {
  const Dag& dag = plan_->dag();
  const Node& n = dag.node(node);

  // Nodes outside the plan (leaf matrices or other plans' materialized
  // outputs) come from the fetcher.
  if (!plan_->Contains(node)) {
    FUSEME_CHECK(n.kind != OpKind::kScalar)
        << "scalar nodes are consumed inline";
    return fetcher_(node, bi, bj);
  }

  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kScalar:
      return Status::Internal("leaf cannot be a plan member");

    case OpKind::kUnary: {
      FUSEME_ASSIGN_OR_RETURN(Block in, Eval(n.inputs[0], bi, bj));
      return Unary(n.unary_fn, in, &flops_);
    }

    case OpKind::kBinary: {
      const Node& a = dag.node(n.inputs[0]);
      const Node& b = dag.node(n.inputs[1]);
      if (a.kind == OpKind::kScalar) {
        FUSEME_ASSIGN_OR_RETURN(Block rhs, Eval(n.inputs[1], bi, bj));
        return EwiseScalar(n.binary_fn, rhs, a.scalar, /*scalar_left=*/true,
                           &flops_);
      }
      if (b.kind == OpKind::kScalar) {
        FUSEME_ASSIGN_OR_RETURN(Block lhs, Eval(n.inputs[0], bi, bj));
        return EwiseScalar(n.binary_fn, lhs, b.scalar, /*scalar_left=*/false,
                           &flops_);
      }
      // Sparse-driver fast path: mask * f(...MM...).
      if (driver_.found() && node == driver_.mul_node) {
        return EvalMaskedMul(n, bi, bj);
      }
      FUSEME_ASSIGN_OR_RETURN(Block lhs, Eval(n.inputs[0], bi, bj));
      FUSEME_ASSIGN_OR_RETURN(Block rhs, Eval(n.inputs[1], bi, bj));
      return EwiseBinary(n.binary_fn, lhs, rhs, &flops_);
    }

    case OpKind::kMatMul: {
      const Node& lhs = dag.node(n.inputs[0]);
      const NodeGrid lhs_grid{lhs.rows, lhs.cols, block_size_};
      std::int64_t k0 = 0, k1 = lhs_grid.grid_cols();
      if (node == restricted_mm_) {
        k0 = k_begin_;
        k1 = k_end_;
      }
      const NodeGrid out = Grid(node);
      DenseMatrix acc(out.TileRows(bi), out.TileCols(bj));
      bool all_meta_inputs = false;
      Block meta_result;
      std::int64_t mm_flops = 0;
      // Aᵀ·B fusion: when the lhs is an in-plan transpose of a sparse
      // input, feed the *untransposed* block (kk, bi) straight into the
      // transpose-SpMM kernel instead of materializing the transpose.
      // Contributions per output element still arrive in ascending-k
      // order, so the result is bitwise-identical; skipped when the
      // transposed block is already injected or memoized (reuse is
      // cheaper than recomputing).
      const bool lhs_is_transpose =
          plan_->Contains(n.inputs[0]) &&
          dag.node(n.inputs[0]).kind == OpKind::kTranspose;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        if (lhs_is_transpose && !injected_.contains({n.inputs[0], bi, kk}) &&
            !cache_.contains({n.inputs[0], bi, kk})) {
          const NodeId pre = dag.node(n.inputs[0]).inputs[0];
          FUSEME_ASSIGN_OR_RETURN(Block araw, Eval(pre, kk, bi));
          if (araw.kind() == Block::Kind::kSparse) {
            FUSEME_ASSIGN_OR_RETURN(Block b, Eval(n.inputs[1], kk, bj));
            if (b.is_real()) {
              TransposeSpmmAcc(&acc, araw.sparse(), b, &mm_flops);
              continue;
            }
          }
        }
        FUSEME_ASSIGN_OR_RETURN(Block a, Eval(n.inputs[0], bi, kk));
        FUSEME_ASSIGN_OR_RETURN(Block b, Eval(n.inputs[1], kk, bj));
        if (a.is_meta() || b.is_meta()) {
          // Simulated data: accumulate descriptors instead of numbers.
          FUSEME_ASSIGN_OR_RETURN(Block partial, MatMul(a, b, &mm_flops));
          if (!all_meta_inputs) {
            meta_result = partial;
            all_meta_inputs = true;
          } else {
            FUSEME_ASSIGN_OR_RETURN(
                meta_result,
                MergeAgg(AggFn::kSum, meta_result, partial, nullptr));
          }
          continue;
        }
        FUSEME_RETURN_IF_ERROR(MatMulAcc(&acc, a, b, &mm_flops));
      }
      flops_ += mm_flops;
      gemm_flops_ += mm_flops;
      if (all_meta_inputs) return meta_result;
      Block dense = Block::FromDense(std::move(acc));
      if (dense.nnz() == 0) return Block::Zero(dense.rows(), dense.cols());
      if (dense.density() < kDenseStorageThreshold) {
        ++dense_to_sparse_;
        return Block::FromSparse(SparseMatrix::FromDense(dense.dense()));
      }
      return dense;
    }

    case OpKind::kUnaryAgg: {
      // Per-block partial aggregation; the distributed operator merges
      // partials across blocks and tasks.
      FUSEME_ASSIGN_OR_RETURN(Block in, Eval(n.inputs[0], bi, bj));
      switch (n.agg_axis) {
        case AggAxis::kAll:
          return FullAgg(n.agg_fn, in, &flops_);
        case AggAxis::kRow:
          return RowAgg(n.agg_fn, in, &flops_);
        case AggAxis::kCol:
          return ColAgg(n.agg_fn, in, &flops_);
      }
      return Status::Internal("unknown agg axis");
    }

    case OpKind::kTranspose: {
      FUSEME_ASSIGN_OR_RETURN(Block in, Eval(n.inputs[0], bj, bi));
      return Transpose(in, &flops_);
    }
  }
  return Status::Internal("unknown node kind");
}

Result<bool> KernelEvaluator::TrySddmm(NodeId node, const Block& mask,
                                       std::int64_t bi, std::int64_t bj,
                                       std::vector<double>* vals) {
  const Dag& dag = plan_->dag();
  const Node& n = dag.node(node);
  if (n.kind != OpKind::kMatMul) return false;
  const NodeId lhs_id = n.inputs[0];
  const NodeId rhs_id = n.inputs[1];
  // Restricted to external operands: the element path evaluates in-plan
  // operands per element (charging per element), which blockwise kernels
  // cannot reproduce charge-for-charge.
  if (plan_->Contains(lhs_id) || plan_->Contains(rhs_id)) return false;
  if (mask.kind() != Block::Kind::kSparse) return false;

  const Node& lhs = dag.node(lhs_id);
  const NodeGrid lhs_grid{lhs.rows, lhs.cols, block_size_};
  std::int64_t k0 = 0, k1 = lhs_grid.grid_cols();
  if (node == restricted_mm_) {
    k0 = k_begin_;
    k1 = k_end_;
  }
  std::vector<Block> a_blocks, b_blocks;
  a_blocks.reserve(k1 - k0);
  b_blocks.reserve(k1 - k0);
  for (std::int64_t kk = k0; kk < k1; ++kk) {
    FUSEME_ASSIGN_OR_RETURN(Block a, Eval(lhs_id, bi, kk));
    FUSEME_ASSIGN_OR_RETURN(Block b, Eval(rhs_id, kk, bj));
    if (a.is_meta() || b.is_meta()) return false;  // simulated data
    a_blocks.push_back(std::move(a));
    b_blocks.push_back(std::move(b));
  }

  vals->assign(static_cast<std::size_t>(mask.nnz()), 0.0);
  std::int64_t span = 0;       // total element-level k width
  std::int64_t kernel_flops = 0;  // kernel-layer charge, superseded below
  for (std::size_t idx = 0; idx < a_blocks.size(); ++idx) {
    SddmmAcc(mask.sparse(), a_blocks[idx], b_blocks[idx], vals,
             &kernel_flops);
    span += a_blocks[idx].cols();
  }
  // Charge exactly what the element path would: 2·span per mask non-zero,
  // all of it GEMM work.  (The kernel's own tally equals this; charging
  // from `span` keeps the equivalence explicit.)
  flops_ += 2 * span * mask.nnz();
  gemm_flops_ += 2 * span * mask.nnz();
  return true;
}

Result<Block> KernelEvaluator::EvalMaskedMul(const Node& n, std::int64_t bi,
                                             std::int64_t bj) {
  const bool mask_left = n.inputs[0] == driver_.sparse_input;
  const NodeId mask_id = driver_.sparse_input;
  const NodeId other_id = mask_left ? n.inputs[1] : n.inputs[0];

  FUSEME_ASSIGN_OR_RETURN(Block mask, Eval(mask_id, bi, bj));
  if (mask.is_zero()) return Block::Zero(mask.rows(), mask.cols());
  if (mask.is_meta() || mask.kind() == Block::Kind::kDense) {
    // No exploitable pattern at runtime (meta blocks can't be iterated and
    // dense masks don't pay off): fall back to the block path.
    FUSEME_ASSIGN_OR_RETURN(Block lhs, Eval(n.inputs[0], bi, bj));
    FUSEME_ASSIGN_OR_RETURN(Block rhs, Eval(n.inputs[1], bi, bj));
    return EwiseBinary(n.binary_fn, lhs, rhs, &flops_);
  }

  const std::int64_t gi0 = bi * block_size_;
  const std::int64_t gj0 = bj * block_size_;
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  triplets.reserve(mask.nnz());
  // SDDMM fast path when the masked operand is a bare matmul: blockwise
  // dot kernels over the mask pattern, bitwise- and charge-identical to
  // the per-element recursion below.
  std::vector<double> dots;
  if (plan_->Contains(other_id)) {
    FUSEME_ASSIGN_OR_RETURN(bool sddmm,
                            TrySddmm(other_id, mask, bi, bj, &dots));
    if (sddmm) {
      std::int64_t p = 0;
      mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
        const double other = dots[static_cast<std::size_t>(p++)];
        const double out = mask_left ? v * other : other * v;
        if (out != 0.0) triplets.emplace_back(i, j, out);
      });
      flops_ += mask.nnz();
      SparseMatrix result = SparseMatrix::FromTriplets(
          mask.rows(), mask.cols(), std::move(triplets));
      if (result.nnz() == 0) return Block::Zero(mask.rows(), mask.cols());
      if (result.density() >= kDenseStorageThreshold) {
        ++sparse_to_dense_;
        return Block::FromDense(result.ToDense());
      }
      return Block::FromSparse(std::move(result));
    }
  }
  Status element_status = Status::OK();
  mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
    if (!element_status.ok()) return;
    Result<double> other = EvalElement(other_id, gi0 + i, gj0 + j);
    if (!other.ok()) {
      element_status = other.status();
      return;
    }
    const double out = mask_left ? v * *other : *other * v;
    if (out != 0.0) triplets.emplace_back(i, j, out);
  });
  FUSEME_RETURN_IF_ERROR(element_status);
  flops_ += mask.nnz();
  SparseMatrix result = SparseMatrix::FromTriplets(mask.rows(), mask.cols(),
                                                   std::move(triplets));
  if (result.nnz() == 0) return Block::Zero(mask.rows(), mask.cols());
  if (result.density() >= kDenseStorageThreshold) {
    ++sparse_to_dense_;
    return Block::FromDense(result.ToDense());
  }
  return Block::FromSparse(std::move(result));
}

Result<Block> KernelEvaluator::EvalMaskedNode(NodeId value_node,
                                              NodeId mask_node,
                                              std::int64_t bi,
                                              std::int64_t bj) {
  FUSEME_ASSIGN_OR_RETURN(Block mask, Eval(mask_node, bi, bj));
  if (mask.is_zero()) {
    const NodeGrid out = Grid(value_node);
    return Block::Zero(out.TileRows(bi), out.TileCols(bj));
  }
  if (!mask.is_real() || mask.kind() == Block::Kind::kDense) {
    return Eval(value_node, bi, bj);
  }
  const std::int64_t gi0 = bi * block_size_;
  const std::int64_t gj0 = bj * block_size_;
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  triplets.reserve(mask.nnz());
  // The R>1 first phase masks the bare matmul itself — the SDDMM hot
  // path.  Blockwise dots replace the per-element recursion when they can
  // reproduce it exactly.
  if (plan_->Contains(value_node)) {
    std::vector<double> dots;
    FUSEME_ASSIGN_OR_RETURN(bool sddmm,
                            TrySddmm(value_node, mask, bi, bj, &dots));
    if (sddmm) {
      std::int64_t p = 0;
      mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double) {
        const double v = dots[static_cast<std::size_t>(p++)];
        if (v != 0.0) triplets.emplace_back(i, j, v);
      });
      SparseMatrix result = SparseMatrix::FromTriplets(
          mask.rows(), mask.cols(), std::move(triplets));
      if (result.nnz() == 0) return Block::Zero(mask.rows(), mask.cols());
      return Block::FromSparse(std::move(result));
    }
  }
  Status element_status = Status::OK();
  mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double) {
    if (!element_status.ok()) return;
    Result<double> value = EvalElement(value_node, gi0 + i, gj0 + j);
    if (!value.ok()) {
      element_status = value.status();
      return;
    }
    if (*value != 0.0) triplets.emplace_back(i, j, *value);
  });
  FUSEME_RETURN_IF_ERROR(element_status);
  SparseMatrix result = SparseMatrix::FromTriplets(mask.rows(), mask.cols(),
                                                   std::move(triplets));
  if (result.nnz() == 0) return Block::Zero(mask.rows(), mask.cols());
  return Block::FromSparse(std::move(result));
}

Result<double> KernelEvaluator::EvalElement(NodeId node, std::int64_t gi,
                                            std::int64_t gj) {
  const Dag& dag = plan_->dag();
  const Node& n = dag.node(node);
  const std::int64_t bi = gi / block_size_, bj = gj / block_size_;
  const std::int64_t li = gi % block_size_, lj = gj % block_size_;

  if (!plan_->Contains(node)) {
    if (n.kind == OpKind::kScalar) return n.scalar;
    FUSEME_ASSIGN_OR_RETURN(Block block, Eval(node, bi, bj));
    if (!block.is_real()) {
      return Status::Internal("element access on meta block");
    }
    return block.At(li, lj);
  }

  // Injected (aggregated) values take precedence — the R>1 second phase
  // reads the matmul's combined partials here.
  if (auto it = injected_.find({node, bi, bj}); it != injected_.end()) {
    return it->second.At(li, lj);
  }

  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kScalar:
      return Status::Internal("leaf cannot be a plan member");
    case OpKind::kUnary: {
      FUSEME_ASSIGN_OR_RETURN(double x, EvalElement(n.inputs[0], gi, gj));
      flops_ += 1;
      return ApplyUnary(n.unary_fn, x);
    }
    case OpKind::kBinary: {
      const Node& a = dag.node(n.inputs[0]);
      const Node& b = dag.node(n.inputs[1]);
      double x, y;
      if (a.kind == OpKind::kScalar) {
        x = a.scalar;
      } else {
        FUSEME_ASSIGN_OR_RETURN(x, EvalElement(n.inputs[0], gi, gj));
      }
      if (b.kind == OpKind::kScalar) {
        y = b.scalar;
      } else {
        FUSEME_ASSIGN_OR_RETURN(y, EvalElement(n.inputs[1], gi, gj));
      }
      flops_ += 1;
      return ApplyBinary(n.binary_fn, x, y);
    }
    case OpKind::kTranspose:
      return EvalElement(n.inputs[0], gj, gi);
    case OpKind::kMatMul: {
      const Node& lhs = dag.node(n.inputs[0]);
      std::int64_t gk0 = 0, gk1 = lhs.cols;
      if (node == restricted_mm_) {
        gk0 = k_begin_ * block_size_;
        gk1 = std::min(lhs.cols, k_end_ * block_size_);
      }
      double acc = 0.0;
      for (std::int64_t gk = gk0; gk < gk1; ++gk) {
        FUSEME_ASSIGN_OR_RETURN(double a, EvalElement(n.inputs[0], gi, gk));
        FUSEME_ASSIGN_OR_RETURN(double b, EvalElement(n.inputs[1], gk, gj));
        acc += a * b;
      }
      flops_ += 2 * (gk1 - gk0);
      gemm_flops_ += 2 * (gk1 - gk0);
      return acc;
    }
    case OpKind::kUnaryAgg:
      return Status::Internal(
          "aggregation cannot appear under a sparse driver");
  }
  return Status::Internal("unknown node kind");
}

}  // namespace fuseme
