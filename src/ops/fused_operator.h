// Distributed fused operators (paper §2.2, §3.2).
//
// Both operators execute a PartialPlan as ONE distributed stage — matrix
// consolidation, local fused kernels, optional matrix aggregation — and
// record every byte / FLOP / memory charge in the StageContext:
//
//  * CuboidFusedOperator — the paper's CFO.  (P,Q,R)-cuboid partitions the
//    main matmul's model space; L/R/O side inputs are fetched per task
//    (replication emerges from overlapping fetch sets).  R>1 runs in two
//    phases: partial (optionally mask-exploiting) matmuls per k-slice,
//    then a shuffle-merge and the O-space evaluation on the r=0 tasks.
//    Each (p,q) column is one work item; its phase-1 k-slice groups run
//    in parallel inside it and merge in group order, so outputs and
//    accounting match a serial run bit for bit.
//    RFO is the special case (P,Q,R) = (I,J,1); plans without a matmul run
//    with R = 1 as plain Cell fusion.
//
//  * BroadcastFusedOperator — the paper's BFO.  The largest input is
//    repartitioned; every other input is broadcast whole to every task
//    (charged against each task's memory budget, which is exactly how the
//    BFO O.O.M. failures of Figs. 12/14 arise).
//
// Execution is representation-agnostic: with meta-block inputs the same
// control flow runs the analytic simulation.

#ifndef FUSEME_OPS_FUSED_OPERATOR_H_
#define FUSEME_OPS_FUSED_OPERATOR_H_

#include <map>

#include "common/result.h"
#include "cost/cost_model.h"
#include "fusion/partial_plan.h"
#include "runtime/distributed_matrix.h"
#include "runtime/stage.h"

namespace fuseme {

/// External node id -> its distributed matrix.  Every matrix-valued
/// external input of the plan must be present.
using FusedInputs = std::map<NodeId, const DistributedMatrix*>;

/// Execution options for the cuboid operator.
struct CuboidOptions {
  /// Split the i/j axes by the sparse mask's per-tile-row/column non-zero
  /// counts instead of uniformly, so each cuboid carries a similar amount
  /// of exploitable work.  Implements the load-balancing extension the
  /// paper lists as future work (§8: "better load balancing by
  /// considering differences in sparsities of cuboids").  No effect when
  /// the plan has no sparse driver.
  bool balance_sparsity = false;
};

class CuboidFusedOperator {
 public:
  /// Runs `plan` with cuboid `c`; accounting goes to `ctx`.
  static Result<DistributedMatrix> Execute(
      const PartialPlan& plan, const Cuboid& c, const FusedInputs& inputs,
      StageContext* ctx, const CuboidOptions& options = {});
};

/// Whether the two-phase R>1 execution applies to `plan`: it requires the
/// O-space to preserve the main matmul's shape (so partial blocks can be
/// merged coordinate-wise before the O-space evaluation).
bool CuboidSupportsKSplit(const PartialPlan& plan);

class BroadcastFusedOperator {
 public:
  static Result<DistributedMatrix> Execute(const PartialPlan& plan,
                                           const FusedInputs& inputs,
                                           StageContext* ctx);
};

}  // namespace fuseme

#endif  // FUSEME_OPS_FUSED_OPERATOR_H_
