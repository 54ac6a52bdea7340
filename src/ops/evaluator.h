// KernelEvaluator: executes one fused "kernel" (paper Fig. 8) — the
// computation of one output block of a partial fusion plan — on local
// blocks, without materializing any cross-task intermediate.
//
// The evaluator interprets the plan's sub-DAG bottom-up at block
// granularity.  Three features make it the engine of every distributed
// fused operator:
//
//  * k-restriction: the main matrix multiplication can be confined to a
//    block range [k_begin, k_end), producing the partial result a cuboid
//    D_{p,q,r} owns (§2.3);
//  * value injection: a pre-computed block can be bound to a node, which is
//    how the R>1 two-phase execution feeds aggregated matmul partials back
//    into the O-space evaluation;
//  * masked program: when a sparse mask gates the matmul (Fig. 1(a)),
//    possibly through an element-wise chain, the evaluator lowers the
//    sub-DAG under the mask into a flat register program once per mask
//    block (SystemML's Outer template) and runs it once per mask
//    non-zero — a dot product of a U row with a V row, then the chain —
//    instead of materializing the dense product.
//
// External input blocks are pulled through a caller-provided fetcher; the
// caller (the distributed operator) charges communication and memory there.

#ifndef FUSEME_OPS_EVALUATOR_H_
#define FUSEME_OPS_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "fusion/partial_plan.h"
#include "fusion/sparsity_analysis.h"
#include "matrix/block.h"
#include "matrix/sparse_kernels.h"

namespace fuseme {

/// Pulls block (bi, bj) of external node `id` into the current task.
using BlockFetcher =
    std::function<Result<Block>(NodeId id, std::int64_t bi, std::int64_t bj)>;

/// Block-grid geometry of one node under a fixed block size.
struct NodeGrid {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t block_size = 1;

  std::int64_t grid_rows() const {
    return rows == 0 ? 0 : (rows + block_size - 1) / block_size;
  }
  std::int64_t grid_cols() const {
    return cols == 0 ? 0 : (cols + block_size - 1) / block_size;
  }
  std::int64_t TileRows(std::int64_t bi) const {
    return std::min(block_size, rows - bi * block_size);
  }
  std::int64_t TileCols(std::int64_t bj) const {
    return std::min(block_size, cols - bj * block_size);
  }
};

class KernelEvaluator {
 public:
  /// (node, bi, bj) — identifies one block of one node.
  using Key = std::tuple<NodeId, std::int64_t, std::int64_t>;

  KernelEvaluator(const PartialPlan* plan, std::int64_t block_size,
                  BlockFetcher fetcher);

  /// Confines matmul node `mm` to inner block range [k_begin, k_end).
  void RestrictK(NodeId mm, std::int64_t k_begin, std::int64_t k_end);

  /// Binds a precomputed block to (node, bi, bj); Eval returns it directly.
  void Inject(NodeId node, std::int64_t bi, std::int64_t bj, Block block);

  /// Enables the masked program for `driver`.
  void SetSparseDriver(const SparseDriver& driver) { driver_ = driver; }

  /// Evaluates block (bi, bj) of `node` (a plan member or input).
  Result<Block> Eval(NodeId node, std::int64_t bi, std::int64_t bj);

  /// Evaluates block (bi, bj) of `value_node` only at the non-zero
  /// positions of the same block of `mask_node` (an external sparse
  /// input), returning a sparse block.  Used for the R>1 first phase: the
  /// masked *partial* matmul under the current k-restriction.
  Result<Block> EvalMaskedNode(NodeId value_node, NodeId mask_node,
                               std::int64_t bi, std::int64_t bj);

  /// Geometry of `node` under the evaluator's block size.
  NodeGrid Grid(NodeId node) const;

  /// FLOPs executed since construction.
  std::int64_t flops() const { return flops_; }

  /// Matmul-kernel FLOPs — the GEMM subset of flops().
  std::int64_t gemm_flops() const { return gemm_flops_; }
  /// Block storage-format conversions the evaluator performed (a matmul
  /// result densifying below the storage threshold, a sparse-driver result
  /// densifying above it).
  std::int64_t sparse_to_dense_conversions() const { return sparse_to_dense_; }
  std::int64_t dense_to_sparse_conversions() const { return dense_to_sparse_; }
  /// What the sparse kernels this evaluator called did (their own flops
  /// tally, not the flops() charge).
  const SparseKernelCounts& sparse_counts() const { return sparse_; }

  /// Drops memoized blocks (injected values are kept).
  void ClearCache();

 private:
  Result<Block> EvalUncached(NodeId node, std::int64_t bi, std::int64_t bj);
  Result<Block> EvalMaskedMul(const Node& n, std::int64_t bi,
                              std::int64_t bj);
  /// Fills `vals` with `node`'s value at every stored position of `mask`
  /// (a sparse block at (bi, bj)), in CSR order: TrySddmm when it applies,
  /// the lowered masked program otherwise.
  Status EvalAtMask(NodeId node, const Block& mask, std::int64_t bi,
                    std::int64_t bj, std::vector<double>* vals);
  /// SDDMM block fast path: when `node` is a plan-member matmul over two
  /// *external* inputs, computes its value at every stored position of
  /// `mask` (a sparse block) with blockwise dot kernels.  On success fills
  /// `vals` (CSR order of mask, size nnz), charges the same FLOPs the
  /// masked program would, and returns true; returns false (charging
  /// nothing) when the fast path does not apply.
  Result<bool> TrySddmm(NodeId node, const Block& mask, std::int64_t bi,
                        std::int64_t bj, std::vector<double>* vals);

  /// The sub-DAG under a mask, lowered for one mask block (evaluator.cc).
  class MaskedProgram;
  /// Appends to code `code` of `prog` the instructions computing the
  /// element of `node`'s block (bi, bj) at the code's frame position
  /// (row, col) — or (col, row) when `swap` — and fetches the blocks they
  /// read.  Returns the register holding the value.
  Result<int> Bind(MaskedProgram* prog, int code, NodeId node,
                   std::int64_t bi, std::int64_t bj, bool swap);

  const PartialPlan* plan_;
  std::int64_t block_size_;
  BlockFetcher fetcher_;
  SparseDriver driver_;

  NodeId restricted_mm_ = kInvalidNode;
  std::int64_t k_begin_ = 0;
  std::int64_t k_end_ = 0;

  std::map<Key, Block> cache_;
  std::map<Key, Block> injected_;
  std::int64_t flops_ = 0;
  std::int64_t gemm_flops_ = 0;
  std::int64_t sparse_to_dense_ = 0;
  std::int64_t dense_to_sparse_ = 0;
  SparseKernelCounts sparse_;
};

}  // namespace fuseme

#endif  // FUSEME_OPS_EVALUATOR_H_
