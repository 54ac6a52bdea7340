#include "ops/evaluator.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/logging.h"
#include "matrix/block_ops.h"
#include "matrix/sparse_kernels.h"

namespace fuseme {

// The sub-DAG under a sparse mask, lowered for one mask block: straight-
// line codes over per-code register files.  KernelEvaluator::Bind emits
// them once per mask block; Run executes code 0 once per mask non-zero.
//
// A code evaluates its nodes at one frame position (row, col), local to
// the blocks it reads.  Code 0 is framed at the mask non-zero.  A dot
// keeps, per k-block of its range, one code per operand: the lhs framed
// at (row, kl), the rhs at (kl, col).  A transpose emits nothing — the
// loads and dots under it read the frame swapped, as (col, row).
class KernelEvaluator::MaskedProgram {
 public:
  enum class Op { kConst, kLoad, kUnary, kBinary, kDot };
  struct Instr {
    Op op = Op::kConst;
    bool swap = false;  // kLoad, kDot: read the frame as (col, row)
    UnaryFn unary = UnaryFn::kIdentity;
    BinaryFn binary = BinaryFn::kAdd;
    int a = 0, b = 0;  // kUnary, kBinary: operand registers
    int dot = 0;       // kDot: index into dots_
    double value = 0.0;            // kConst
    const Block* block = nullptr;  // kLoad
  };
  /// Terms [k0, k0 + width) of one k-block.  When both operand codes are a
  /// single load of a dense block, `a`/`b` address the operands directly:
  /// the lhs element (row, k0 + t) is a[row * a_row + t * a_k], the rhs
  /// element (k0 + t, col) is b[col * b_col + t * b_k].
  struct Term {
    std::int64_t k0 = 0, width = 0;
    int lhs = 0, rhs = 0;  // operand codes
    const double* a = nullptr;
    const double* b = nullptr;
    std::int64_t a_row = 0, a_k = 0, b_col = 0, b_k = 0;
  };
  /// A matmul element: its terms plus the FLOPs one evaluation charges.
  struct Dot {
    std::vector<Term> terms;
    std::int64_t flops = 0;
    std::int64_t gemm_flops = 0;
  };

  int NewCode() {
    codes_.emplace_back();
    return static_cast<int>(codes_.size()) - 1;
  }
  /// Appends `in` to `code` and returns its register; a unary or binary
  /// op charges one FLOP per run.
  int Emit(int code, const Instr& in) {
    Code& c = codes_[code];
    if (in.op == Op::kUnary || in.op == Op::kBinary) c.flops += 1;
    c.instrs.push_back(in);
    c.regs.push_back(0.0);
    return static_cast<int>(c.instrs.size()) - 1;
  }
  int Load(int code, Block block, bool swap) {
    blocks_.push_back(std::move(block));
    return Emit(code,
                {.op = Op::kLoad, .swap = swap, .block = &blocks_.back()});
  }
  /// Appends the k-block whose operands codes `lhs`/`rhs` evaluate; they
  /// run `width` times per evaluation of the dot.
  void AddTerm(Dot* dot, std::int64_t k0, std::int64_t width, int lhs,
               int rhs) {
    Term t{.k0 = k0, .width = width, .lhs = lhs, .rhs = rhs};
    const Instr* a = DenseLoad(lhs);
    const Instr* b = DenseLoad(rhs);
    if (a != nullptr && b != nullptr) {
      // A load framed at (p, q) reads block element (q, p) when swapped.
      const std::int64_t lda = a->block->cols(), ldb = b->block->cols();
      t.a_row = a->swap ? 1 : lda;
      t.a_k = a->swap ? lda : 1;
      t.b_k = b->swap ? 1 : ldb;
      t.b_col = b->swap ? ldb : 1;
      t.a = a->block->dense().data() + k0 * t.a_k;
      t.b = b->block->dense().data() + k0 * t.b_k;
    }
    dot->flops += width * (codes_[lhs].flops + codes_[rhs].flops);
    dot->gemm_flops +=
        width * (codes_[lhs].gemm_flops + codes_[rhs].gemm_flops);
    dot->terms.push_back(t);
  }
  int EmitDot(int code, Dot dot, bool swap) {
    codes_[code].flops += dot.flops;
    codes_[code].gemm_flops += dot.gemm_flops;
    dots_.push_back(std::move(dot));
    return Emit(code, {.op = Op::kDot,
                       .swap = swap,
                       .dot = static_cast<int>(dots_.size()) - 1});
  }

  /// FLOPs (and their GEMM share) one run of `code` charges.
  std::int64_t flops(int code) const { return codes_[code].flops; }
  std::int64_t gemm_flops(int code) const { return codes_[code].gemm_flops; }

  /// Evaluates `code` at frame position (row, col); its value is the last
  /// instruction's register.
  double Eval(int code, std::int64_t row, std::int64_t col) {
    Code& c = codes_[code];
    double* r = c.regs.data();
    for (std::size_t i = 0; i < c.instrs.size(); ++i) {
      const Instr& in = c.instrs[i];
      const std::int64_t p = in.swap ? col : row;
      const std::int64_t q = in.swap ? row : col;
      switch (in.op) {
        case Op::kConst:
          r[i] = in.value;
          break;
        case Op::kLoad:
          r[i] = in.block->At(p, q);
          break;
        case Op::kUnary:
          r[i] = ApplyUnary(in.unary, r[in.a]);
          break;
        case Op::kBinary:
          r[i] = ApplyBinary(in.binary, r[in.a], r[in.b]);
          break;
        case Op::kDot:
          r[i] = RunDot(dots_[in.dot], p, q);
          break;
      }
    }
    return r[c.instrs.size() - 1];
  }

 private:
  struct Code {
    std::vector<Instr> instrs;
    std::vector<double> regs;  // one per instruction
    std::int64_t flops = 0;
    std::int64_t gemm_flops = 0;
  };

  /// The load instruction when `code` is nothing but a dense-block load.
  const Instr* DenseLoad(int code) const {
    const std::vector<Instr>& instrs = codes_[code].instrs;
    if (instrs.size() != 1 || instrs[0].op != Op::kLoad ||
        instrs[0].block->kind() != Block::Kind::kDense) {
      return nullptr;
    }
    return &instrs[0];
  }

  /// Every term is added, zeros included, in ascending k from 0.0 — the
  /// summation order of the dense product.
  double RunDot(const Dot& dot, std::int64_t row, std::int64_t col) {
    double acc = 0.0;
    for (const Term& t : dot.terms) {
      if (t.a != nullptr) {
        const double* a = t.a + row * t.a_row;
        const double* b = t.b + col * t.b_col;
        for (std::int64_t k = 0; k < t.width; ++k) {
          acc += a[k * t.a_k] * b[k * t.b_k];
        }
        continue;
      }
      for (std::int64_t k = t.k0; k < t.k0 + t.width; ++k) {
        const double a = Eval(t.lhs, row, k);
        acc += a * Eval(t.rhs, k, col);
      }
    }
    return acc;
  }

  std::vector<Code> codes_;
  std::vector<Dot> dots_;
  std::deque<Block> blocks_;  // stable addresses for kLoad
};

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
      return EwiseBinary(n.binary_fn, lhs, rhs, &flops_, &sparse_);
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
              TransposeSpmmAcc(&acc, araw.sparse(), b, &mm_flops, &sparse_);
              continue;
            }
          }
        }
        FUSEME_ASSIGN_OR_RETURN(Block a, Eval(n.inputs[0], bi, kk));
        FUSEME_ASSIGN_OR_RETURN(Block b, Eval(n.inputs[1], kk, bj));
        if (a.is_meta() || b.is_meta()) {
          // Simulated data: accumulate descriptors instead of numbers.
          FUSEME_ASSIGN_OR_RETURN(Block partial,
                                  MatMul(a, b, &mm_flops, &sparse_));
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
        FUSEME_RETURN_IF_ERROR(MatMulAcc(&acc, a, b, &mm_flops, &sparse_));
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
  // Restricted to external operands: the masked program evaluates in-plan
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
  std::int64_t span = 0;  // total element-level k width
  for (std::size_t idx = 0; idx < a_blocks.size(); ++idx) {
    SddmmAcc(mask.sparse(), a_blocks[idx], b_blocks[idx], vals,
             /*flops=*/nullptr, &sparse_);
    span += a_blocks[idx].cols();
  }
  // Charge exactly what the masked program would: 2·span per mask
  // non-zero, all of it GEMM work.  (The kernel's own tally, in
  // sparse_counts(), equals this; charging from `span` keeps the
  // equivalence explicit.)
  flops_ += 2 * span * mask.nnz();
  gemm_flops_ += 2 * span * mask.nnz();
  return true;
}

Result<int> KernelEvaluator::Bind(MaskedProgram* prog, int code, NodeId node,
                                  std::int64_t bi, std::int64_t bj,
                                  bool swap) {
  using Op = MaskedProgram::Op;
  const Dag& dag = plan_->dag();
  const Node& n = dag.node(node);
  auto load = [&](Block block) -> Result<int> {
    if (!block.is_real()) {
      return Status::Internal("element access on meta block");
    }
    return prog->Load(code, std::move(block), swap);
  };

  if (!plan_->Contains(node)) {
    if (n.kind == OpKind::kScalar) return prog->Emit(code, {.value = n.scalar});
    FUSEME_ASSIGN_OR_RETURN(Block block, Eval(node, bi, bj));
    return load(std::move(block));
  }
  // Injected (aggregated) values take precedence — the R>1 second phase
  // reads the matmul's combined partials here.
  if (auto it = injected_.find({node, bi, bj}); it != injected_.end()) {
    return load(it->second);
  }

  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kScalar:
      return Status::Internal("leaf cannot be a plan member");
    case OpKind::kUnary: {
      FUSEME_ASSIGN_OR_RETURN(int x,
                              Bind(prog, code, n.inputs[0], bi, bj, swap));
      return prog->Emit(code, {.op = Op::kUnary, .unary = n.unary_fn, .a = x});
    }
    case OpKind::kBinary: {
      FUSEME_ASSIGN_OR_RETURN(int x,
                              Bind(prog, code, n.inputs[0], bi, bj, swap));
      FUSEME_ASSIGN_OR_RETURN(int y,
                              Bind(prog, code, n.inputs[1], bi, bj, swap));
      return prog->Emit(
          code, {.op = Op::kBinary, .binary = n.binary_fn, .a = x, .b = y});
    }
    case OpKind::kTranspose:
      return Bind(prog, code, n.inputs[0], bj, bi, !swap);
    case OpKind::kMatMul: {
      const std::int64_t bs = block_size_;
      std::int64_t gk0 = 0, gk1 = dag.node(n.inputs[0]).cols;
      if (node == restricted_mm_) {
        gk0 = k_begin_ * bs;
        gk1 = std::min(gk1, k_end_ * bs);
      }
      MaskedProgram::Dot dot;
      dot.flops = dot.gemm_flops = 2 * (gk1 - gk0);
      // Operands bind per k-block, ascending, lhs before rhs — the order in
      // which an element-by-element evaluation first touches their blocks.
      for (std::int64_t kk = gk0 / bs; kk * bs < gk1; ++kk) {
        const std::int64_t lo = std::max(gk0, kk * bs);
        const std::int64_t hi = std::min(gk1, (kk + 1) * bs);
        const int lhs = prog->NewCode();
        FUSEME_RETURN_IF_ERROR(
            Bind(prog, lhs, n.inputs[0], bi, kk, false).status());
        const int rhs = prog->NewCode();
        FUSEME_RETURN_IF_ERROR(
            Bind(prog, rhs, n.inputs[1], kk, bj, false).status());
        prog->AddTerm(&dot, lo - kk * bs, hi - lo, lhs, rhs);
      }
      return prog->EmitDot(code, std::move(dot), swap);
    }
    case OpKind::kUnaryAgg:
      return Status::Internal(
          "aggregation cannot appear under a sparse driver");
  }
  return Status::Internal("unknown node kind");
}

Status KernelEvaluator::EvalAtMask(NodeId node, const Block& mask,
                                   std::int64_t bi, std::int64_t bj,
                                   std::vector<double>* vals) {
  if (plan_->Contains(node)) {
    FUSEME_ASSIGN_OR_RETURN(bool sddmm, TrySddmm(node, mask, bi, bj, vals));
    if (sddmm) return Status::OK();
  }
  vals->clear();
  const std::int64_t nnz = mask.nnz();
  if (nnz == 0) return Status::OK();
  MaskedProgram prog;
  const int root = prog.NewCode();
  FUSEME_RETURN_IF_ERROR(Bind(&prog, root, node, bi, bj, false).status());
  vals->reserve(static_cast<std::size_t>(nnz));
  mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double) {
    vals->push_back(prog.Eval(root, i, j));
  });
  flops_ += nnz * prog.flops(root);
  gemm_flops_ += nnz * prog.gemm_flops(root);
  return Status::OK();
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
    return EwiseBinary(n.binary_fn, lhs, rhs, &flops_, &sparse_);
  }

  std::vector<double> others;
  FUSEME_RETURN_IF_ERROR(EvalAtMask(other_id, mask, bi, bj, &others));
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  triplets.reserve(others.size());
  std::size_t p = 0;
  mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
    const double other = others[p++];
    const double out = mask_left ? v * other : other * v;
    if (out != 0.0) triplets.emplace_back(i, j, out);
  });
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
  std::vector<double> values;
  FUSEME_RETURN_IF_ERROR(EvalAtMask(value_node, mask, bi, bj, &values));
  std::vector<std::tuple<std::int64_t, std::int64_t, double>> triplets;
  triplets.reserve(values.size());
  std::size_t p = 0;
  mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double) {
    const double v = values[p++];
    if (v != 0.0) triplets.emplace_back(i, j, v);
  });
  SparseMatrix result = SparseMatrix::FromTriplets(mask.rows(), mask.cols(),
                                                   std::move(triplets));
  if (result.nnz() == 0) return Block::Zero(mask.rows(), mask.cols());
  return Block::FromSparse(std::move(result));
}

}  // namespace fuseme
