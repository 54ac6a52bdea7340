#include "ops/fused_operator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "matrix/block_ops.h"
#include "matrix/sparse_kernels.h"
#include "ops/evaluator.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace fuseme {

namespace {

using Coord = std::pair<std::int64_t, std::int64_t>;

/// Balanced split of [0, n) into at most `parts` contiguous ranges.
std::vector<std::pair<std::int64_t, std::int64_t>> SplitRange(
    std::int64_t n, std::int64_t parts) {
  parts = std::max<std::int64_t>(1, std::min(parts, std::max<std::int64_t>(
                                                        n, 1)));
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(parts);
  for (std::int64_t p = 0; p < parts; ++p) {
    out.emplace_back(p * n / parts, (p + 1) * n / parts);
  }
  return out;
}

/// Weighted split of [0, weights.size()) into at most `parts` contiguous
/// ranges with roughly equal total weight (greedy cumulative targets).
std::vector<std::pair<std::int64_t, std::int64_t>> SplitRangeWeighted(
    const std::vector<std::int64_t>& weights, std::int64_t parts) {
  const std::int64_t n = static_cast<std::int64_t>(weights.size());
  parts = std::max<std::int64_t>(1, std::min(parts, std::max<std::int64_t>(
                                                        n, 1)));
  std::int64_t total = 0;
  for (std::int64_t w : weights) total += w;
  if (total == 0) return SplitRange(n, parts);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  out.reserve(parts);
  std::int64_t begin = 0, accumulated = 0;
  for (std::int64_t p = 0; p < parts; ++p) {
    // Leave at least one index for each remaining part.
    const std::int64_t max_end = n - (parts - 1 - p);
    const double target =
        static_cast<double>(total) * static_cast<double>(p + 1) /
        static_cast<double>(parts);
    std::int64_t end = begin;
    while (end < max_end &&
           (end < begin + 1 ||
            static_cast<double>(accumulated) < target)) {
      accumulated += weights[end];
      ++end;
    }
    out.emplace_back(begin, end);
    begin = end;
  }
  out.back().second = n;
  return out;
}

/// Per-tile-row (axis=0) or per-tile-column (axis=1) nnz of a matrix.
std::vector<std::int64_t> TileAxisNnz(const BlockedMatrix& m, int axis) {
  std::vector<std::int64_t> out(
      static_cast<std::size_t>(axis == 0 ? m.grid_rows() : m.grid_cols()),
      0);
  for (std::int64_t bi = 0; bi < m.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < m.grid_cols(); ++bj) {
      out[static_cast<std::size_t>(axis == 0 ? bi : bj)] +=
          m.block(bi, bj).nnz();
    }
  }
  return out;
}

/// Per-task fetch dedup + accounting.  One instance per work item: the
/// tasks a work item executes are owned exclusively by it, so the dedup
/// sets never race and the charges land in the item's local accounting.
/// A "fetch" is a shared-payload Block copy, so it runs inline on the
/// work item's thread.
class TaskFetcher {
 public:
  TaskFetcher(const FusedInputs* inputs, StageAccounting* acct)
      : inputs_(inputs), acct_(acct) {}

  /// A fetcher closure for `task`.  First fetch of a block charges its
  /// bytes as live task memory, and as consolidation traffic unless the
  /// block already lives on this task (a narrow dependency — the owning
  /// task of a co-partitioned input is the consuming task).
  BlockFetcher For(int task) {
    return [this, task](NodeId id, std::int64_t bi,
                        std::int64_t bj) -> Result<Block> {
      auto it = inputs_->find(id);
      if (it == inputs_->end()) {
        return Status::Internal("missing input matrix for node v" +
                                std::to_string(id));
      }
      const BlockedMatrix& m = it->second->blocks();
      if (bi < 0 || bi >= m.grid_rows() || bj < 0 || bj >= m.grid_cols()) {
        return Status::Internal("block coordinate out of range for v" +
                                std::to_string(id));
      }
      const Block& block = m.block(bi, bj);
      if (fetched_[task].insert({id, bi, bj}).second) {
        const std::int64_t bytes = block.SizeBytes();
        if (it->second->Owner(bi, bj) != task) {
          acct_->ChargeConsolidation(task, bytes);
        }
        FUSEME_RETURN_IF_ERROR(acct_->ChargeMemory(task, bytes));
      }
      return block;
    };
  }

  /// Marks a block as already resident on `task` (broadcast pre-charge).
  void MarkResident(int task, NodeId id, std::int64_t bi, std::int64_t bj) {
    fetched_[task].insert({id, bi, bj});
  }

  /// Takes over `from`'s resident sets, so later fetches dedup against
  /// what `from` already fetched (a cuboid column's phase 2 continues its
  /// group 0's task).
  void InheritFetched(TaskFetcher* from) {
    fetched_ = std::move(from->fetched_);
  }

 private:
  const FusedInputs* inputs_;
  StageAccounting* acct_;
  std::map<int, std::set<std::tuple<NodeId, std::int64_t, std::int64_t>>>
      fetched_;
};

/// Where a partial aggregate of input block (bi, bj) lands in the output
/// grid of an aggregation root.
Coord AggTarget(const Node& agg, std::int64_t bi, std::int64_t bj) {
  switch (agg.agg_axis) {
    case AggAxis::kAll:
      return {0, 0};
    case AggAxis::kRow:
      return {bi, 0};
    case AggAxis::kCol:
      return {0, bj};
  }
  return {0, 0};
}

/// Accumulates per-output-block partial aggregates across tasks, charging
/// shuffle bytes for partials shipped to the (first-writer) owner task.
/// Only touched by the sequential commit pass, which replays buffered
/// results in the serial scan order — so the first-writer owner and the
/// floating-point merge order are deterministic and thread-count-invariant.
class AggMerger {
 public:
  AggMerger(const Node& agg, StageContext* ctx) : agg_(agg), ctx_(ctx) {}

  Status Add(int task, std::int64_t in_bi, std::int64_t in_bj,
             const Block& partial) {
    const Coord target = AggTarget(agg_, in_bi, in_bj);
    auto it = merged_.find(target);
    if (it == merged_.end()) {
      merged_.emplace(target, std::make_pair(partial, task));
      FUSEME_RETURN_IF_ERROR(ctx_->ChargeMemory(task, partial.SizeBytes()));
      return Status::OK();
    }
    auto& [block, owner] = it->second;
    if (task != owner) {
      // The partial travels to the owner in the matrix aggregation step.
      ctx_->ChargeAggregation(task, partial.SizeBytes());
    }
    FUSEME_ASSIGN_OR_RETURN(block,
                            MergeAgg(agg_.agg_fn, block, partial, nullptr));
    return Status::OK();
  }

  Result<DistributedMatrix> Finish(std::int64_t block_size, int num_tasks) {
    BlockedMatrix out(agg_.rows, agg_.cols, block_size);
    for (auto& [coord, entry] : merged_) {
      out.set_block(coord.first, coord.second, std::move(entry.first));
    }
    return DistributedMatrix::Create(std::move(out), PartitionScheme::kGrid,
                                     num_tasks);
  }

 private:
  const Node& agg_;
  StageContext* ctx_;
  std::map<Coord, std::pair<Block, int>> merged_;
};

/// An output block buffered by a work item until the commit pass.
struct BlockResult {
  std::int64_t bi = 0;
  std::int64_t bj = 0;
  Block block;
};

/// Outcome of one independent work item of a parallel operator.
struct WorkItem {
  Status status;
  int task = 0;  // task committing this item's outputs
  std::vector<BlockResult> outputs;
};

/// A stage's runtime instruments, resolved once per Execute call so the
/// per-work-item cost is a handful of relaxed atomic bumps.  With a null
/// registry every pointer stays null and recording is a pointer test.
struct StageInstruments {
  Counter* work_items = nullptr;
  Histogram* queue_wait_seconds = nullptr;
  Histogram* item_seconds = nullptr;
  Gauge* queue_depth = nullptr;
  Gauge* pool_threads = nullptr;
  Counter* kernel_flops = nullptr;
  Counter* gemm_flops = nullptr;
  Counter* sparse_to_dense = nullptr;
  Counter* dense_to_sparse = nullptr;
  Counter* output_nnz = nullptr;
  Counter* output_cells = nullptr;
  Counter* sparse_flops = nullptr;
  Counter* sddmm_dots = nullptr;
  Counter* sparse_parallel = nullptr;
  Counter* spmm_sparse_dense_calls = nullptr;
  Counter* spmm_dense_sparse_calls = nullptr;
  Counter* spmm_sparse_sparse_calls = nullptr;
  Counter* transpose_spmm_calls = nullptr;
  Counter* sddmm_calls = nullptr;
  Counter* ewise_merge_join_calls = nullptr;

  static StageInstruments Resolve(MetricsRegistry* metrics) {
    StageInstruments ins;
    if (metrics == nullptr) return ins;
    ins.work_items = metrics->GetCounter(metric_names::kWorkItems);
    ins.queue_wait_seconds = metrics->GetHistogram(
        metric_names::kWorkItemQueueWaitSeconds, DefaultTimeBoundaries());
    ins.item_seconds = metrics->GetHistogram(metric_names::kWorkItemSeconds,
                                             DefaultTimeBoundaries());
    ins.queue_depth = metrics->GetGauge(metric_names::kThreadPoolQueueDepth);
    ins.pool_threads = metrics->GetGauge(metric_names::kThreadPoolThreads);
    ins.kernel_flops = metrics->GetCounter(metric_names::kKernelFlops);
    ins.gemm_flops = metrics->GetCounter(metric_names::kKernelGemmFlops);
    ins.sparse_to_dense = metrics->GetCounter(
        metric_names::kBlockConversions, {{"direction", "sparse_to_dense"}});
    ins.dense_to_sparse = metrics->GetCounter(
        metric_names::kBlockConversions, {{"direction", "dense_to_sparse"}});
    ins.output_nnz = metrics->GetCounter(metric_names::kKernelOutputNnz);
    ins.output_cells = metrics->GetCounter(metric_names::kKernelOutputCells);
    ins.sparse_flops = metrics->GetCounter(metric_names::kKernelSparseFlops);
    ins.sddmm_dots = metrics->GetCounter(metric_names::kKernelSddmmDots);
    ins.sparse_parallel =
        metrics->GetCounter(metric_names::kKernelSparseParallel);
    auto calls = [metrics](const char* kernel) {
      return metrics->GetCounter(metric_names::kKernelSparseCalls,
                                 {{"kernel", kernel}});
    };
    ins.spmm_sparse_dense_calls = calls("spmm_sparse_dense");
    ins.spmm_dense_sparse_calls = calls("spmm_dense_sparse");
    ins.spmm_sparse_sparse_calls = calls("spmm_sparse_sparse");
    ins.transpose_spmm_calls = calls("transpose_spmm");
    ins.sddmm_calls = calls("sddmm");
    ins.ewise_merge_join_calls = calls("ewise_merge_join");
    return ins;
  }

  /// Folds one kernel evaluator's counters in when a work item is done
  /// with it.
  void FlushEvaluator(const KernelEvaluator& eval) const {
    if (kernel_flops == nullptr) return;
    kernel_flops->Add(eval.flops());
    gemm_flops->Add(eval.gemm_flops());
    sparse_to_dense->Add(eval.sparse_to_dense_conversions());
    dense_to_sparse->Add(eval.dense_to_sparse_conversions());
    const SparseKernelCounts& sparse = eval.sparse_counts();
    sparse_flops->Add(sparse.flops);
    sddmm_dots->Add(sparse.sddmm_dots);
    sparse_parallel->Add(sparse.parallel_launches);
    spmm_sparse_dense_calls->Add(sparse.spmm_sparse_dense_calls);
    spmm_dense_sparse_calls->Add(sparse.spmm_dense_sparse_calls);
    spmm_sparse_sparse_calls->Add(sparse.spmm_sparse_sparse_calls);
    transpose_spmm_calls->Add(sparse.transpose_spmm_calls);
    sddmm_calls->Add(sparse.sddmm_calls);
    ewise_merge_join_calls->Add(sparse.ewise_merge_join_calls);
  }

  /// Records an emitted output block's density.
  void CountOutput(const Block& block) const {
    if (output_nnz == nullptr) return;
    output_nnz->Add(block.nnz());
    output_cells->Add(block.rows() * block.cols());
  }
};

/// Names the calling thread in the trace by its role: a pool worker or the
/// driver thread that launched the stage.
void NameTraceThread(Tracer* tracer) {
  if (tracer == nullptr) return;
  tracer->NameCurrentThread(GlobalThreadPool()->InWorker() ? "pool-worker"
                                                           : "driver");
}

/// One W-group of a cuboid column's phase 1.  The group owns its leader
/// task outright, so it fetches and charges through its own fetcher and
/// accounting, and buffers its merged partials until every earlier group
/// has been merged into the column.
struct KGroup {
  KGroup(const FusedInputs* inputs, StageContext* ctx, int leader_task)
      : leader(leader_task), local(ctx), fetcher(inputs, &local) {}

  const int leader;
  LocalStageAccounting local;
  TaskFetcher fetcher;  // charges `local`, so the group must not move
  std::map<Coord, Block> partials;
  Status status;
};

/// Merges a cuboid column's phase-1 groups into the column in group
/// order, on whichever thread finishes them: a finished group is parked,
/// and the thread that finishes the next group in order merges every
/// parked group it unblocks.  Merging in group order replays the serial
/// r-ascending charge and first-seen summation sequence exactly, and each
/// merged group's partials are freed at once, so a serial run holds at
/// most two partial sets.  Merging stops at the first failing group, so
/// the error that surfaces is the one a serial run would hit first.
class KGroupMerger {
 public:
  KGroupMerger(std::deque<KGroup>* groups, LocalStageAccounting* column,
               std::map<Coord, Block>* partials)
      : groups_(groups),
        column_(column),
        partials_(partials),
        finished_(groups->size(), false) {}

  /// Marks group `g` finished and merges every group it unblocks.
  void Finish(std::size_t g) {
    MutexLock lock(mu_);
    finished_[g] = true;
    while (status_.ok() && next_ < finished_.size() && finished_[next_]) {
      status_ = Merge(next_);
      ++next_;
    }
  }

  /// The first failure in group order; OK once every group merged.
  Status status() const {
    MutexLock lock(mu_);
    return status_;
  }

 private:
  Status Merge(std::size_t g) REQUIRES(mu_) {
    KGroup& group = (*groups_)[g];
    FUSEME_RETURN_IF_ERROR(group.status);
    FUSEME_RETURN_IF_ERROR(column_->Absorb(&group.local));
    const int root_task = groups_->front().leader;
    // std::map iterates in the same (bi, bj) order the coords were
    // evaluated in, so the column-wide merge keeps the per-coordinate
    // r-ascending summation order.
    for (auto& [coord, block] : group.partials) {
      if (group.leader != root_task) {
        // Shuffle to the r=0 task in the aggregation step.
        column_->ChargeAggregation(group.leader, block.SizeBytes());
      }
      auto it = partials_->find(coord);
      if (it == partials_->end()) {
        FUSEME_RETURN_IF_ERROR(
            column_->ChargeMemory(root_task, block.SizeBytes()));
        partials_->emplace(coord, std::move(block));
      } else {
        FUSEME_ASSIGN_OR_RETURN(
            it->second, MergeAgg(AggFn::kSum, it->second, block, nullptr));
      }
    }
    group.partials.clear();
    return Status::OK();
  }

  // Set at construction; the pointees are touched only by Merge, which
  // runs under mu_.
  std::deque<KGroup>* groups_;
  LocalStageAccounting* column_;
  std::map<Coord, Block>* partials_;
  mutable Mutex mu_;
  std::vector<bool> finished_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;
  Status status_ GUARDED_BY(mu_);
};

/// The work of one item, charged against the item's local accounting.
using ItemBody = std::function<Status(std::int64_t, LocalStageAccounting*)>;

/// Executes `items->size()` work items: on the global pool when `threads`
/// > 1, inline and in index order otherwise (threads=1 and meta-block
/// simulation).  Items are independent, and every observable side effect
/// is replayed by a sequential commit pass afterwards, so results are
/// identical for every thread count.  Each item runs its body once against
/// one LocalStageAccounting, flushed into the stage on success; a failing
/// status (OutOfMemory, Internal, ...) is deterministic and lands in the
/// item for the commit pass to surface.
void RunItems(StageContext* ctx, int threads, std::vector<WorkItem>* items,
              const StageInstruments& ins, const ItemBody& body) {
  const auto count = static_cast<std::int64_t>(items->size());
  Tracer* tracer = ctx->tracer();
  if (ins.work_items != nullptr) {
    ins.work_items->Add(count);
    ins.pool_threads->Set(static_cast<double>(std::max(threads, 1)));
  }
  const auto enqueue = std::chrono::steady_clock::now();
  auto run_one = [&](std::int64_t i) {
    const auto start = std::chrono::steady_clock::now();
    NameTraceThread(tracer);
    if (ins.queue_wait_seconds != nullptr) {
      ins.queue_wait_seconds->Observe(
          std::chrono::duration<double>(start - enqueue).count());
      ins.queue_depth->Set(
          static_cast<double>(GlobalThreadPool()->ApproxQueueDepth()));
    }
    WorkItem& item = (*items)[static_cast<std::size_t>(i)];
    LocalStageAccounting local(ctx);
    Status run = body(i, &local);
    item.status = run.ok() ? local.Flush() : std::move(run);
    if (ins.item_seconds != nullptr) {
      ins.item_seconds->Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    }
  };
  if (threads > 1) {
    GlobalThreadPool()->ParallelFor(0, count, run_one, threads);
  } else {
    for (std::int64_t i = 0; i < count; ++i) run_one(i);
  }
}

/// True when every bound input carries real block data.  Meta-block
/// (analytic simulation) stages always run serially so the simulator stays
/// deterministic byte-for-byte.
bool AllInputsReal(const FusedInputs& inputs) {
  for (const auto& [id, dm] : inputs) {
    if (!dm->blocks().IsReal()) return false;
  }
  return true;
}

/// Commits round-robin-partitioned work items in the serial global
/// (bi, bj) scan order: replays each task's buffered blocks against the
/// shared context, reproducing the exact charge and aggregation-merge
/// sequence of the serial implementation.  An item that stopped early
/// surfaces its error at the position where the serial run would have
/// failed.
Status CommitRoundRobin(std::int64_t grid_rows, std::int64_t grid_cols,
                        std::vector<WorkItem>* items, bool agg_root,
                        AggMerger* agg_merger, BlockedMatrix* out_blocks,
                        StageContext* ctx) {
  const int num_tasks = static_cast<int>(items->size());
  std::vector<std::size_t> cursor(items->size(), 0);
  for (std::int64_t bi = 0; bi < grid_rows; ++bi) {
    for (std::int64_t bj = 0; bj < grid_cols; ++bj) {
      const int t = static_cast<int>((bi * grid_cols + bj) % num_tasks);
      WorkItem& item = (*items)[static_cast<std::size_t>(t)];
      if (cursor[t] >= item.outputs.size()) {
        FUSEME_RETURN_IF_ERROR(item.status);
        return Status::Internal("work item emitted too few blocks");
      }
      BlockResult& out = item.outputs[cursor[t]++];
      if (agg_root) {
        FUSEME_RETURN_IF_ERROR(agg_merger->Add(t, bi, bj, out.block));
      } else {
        FUSEME_RETURN_IF_ERROR(
            ctx->ChargeMemory(t, out.block.SizeBytes()));
        out_blocks->set_block(bi, bj, std::move(out.block));
      }
    }
  }
  // A trailing error (e.g. the accounting flush) with all blocks emitted.
  for (const WorkItem& item : *items) {
    FUSEME_RETURN_IF_ERROR(item.status);
  }
  return Status::OK();
}

}  // namespace

bool CuboidSupportsKSplit(const PartialPlan& plan) {
  const NodeId mm = plan.MainMatMul();
  if (mm == kInvalidNode) return false;
  const Dag& dag = plan.dag();
  const Node& root = dag.node(plan.root());
  const Node& grid_node = root.kind == OpKind::kUnaryAgg
                              ? dag.node(root.inputs[0])
                              : root;
  const Node& mm_node = dag.node(mm);
  return mm_node.rows == grid_node.rows && mm_node.cols == grid_node.cols;
}

Result<DistributedMatrix> CuboidFusedOperator::Execute(
    const PartialPlan& plan, const Cuboid& c, const FusedInputs& inputs,
    StageContext* ctx, const CuboidOptions& options) {
  const Dag& dag = plan.dag();
  const std::int64_t bs = ctx->config().block_size;
  const Node& root = dag.node(plan.root());
  const bool agg_root = root.kind == OpKind::kUnaryAgg;
  const NodeId eval_grid_node = agg_root ? root.inputs[0] : plan.root();
  const Node& grid_node = dag.node(eval_grid_node);

  const NodeId mm = plan.MainMatMul();
  const SparseDriver driver = FindSparseDriver(plan, mm);

  const NodeGrid out_grid{grid_node.rows, grid_node.cols, bs};
  std::int64_t k_blocks = 1;
  if (mm != kInvalidNode) {
    const Node& mm_lhs = dag.node(dag.node(mm).inputs[0]);
    k_blocks = (mm_lhs.cols + bs - 1) / bs;
    if (c.R > 1) {
      const Node& mm_node = dag.node(mm);
      if (mm_node.rows != grid_node.rows || mm_node.cols != grid_node.cols) {
        return Status::NotImplemented(
            "R>1 requires the O-space to preserve the matmul's shape");
      }
    }
  } else if (c.R > 1) {
    return Status::InvalidArgument("R>1 requires a matrix multiplication");
  }

  auto i_parts = SplitRange(out_grid.grid_rows(), c.P);
  auto j_parts = SplitRange(out_grid.grid_cols(), c.Q);
  const auto k_parts = SplitRange(k_blocks, c.R);
  if (options.balance_sparsity && driver.found() &&
      !plan.Contains(driver.sparse_input)) {
    // Weight the i/j splits by the mask's tile-row/column non-zeros so
    // every cuboid gets a similar number of exploitable positions.
    auto it = inputs.find(driver.sparse_input);
    if (it != inputs.end()) {
      const BlockedMatrix& mask = it->second->blocks();
      if (mask.grid_rows() == out_grid.grid_rows() &&
          mask.grid_cols() == out_grid.grid_cols()) {
        i_parts = SplitRangeWeighted(TileAxisNnz(mask, 0), c.P);
        j_parts = SplitRangeWeighted(TileAxisNnz(mask, 1), c.Q);
      }
    }
  }
  const std::int64_t eff_p = static_cast<std::int64_t>(i_parts.size());
  const std::int64_t eff_q = static_cast<std::int64_t>(j_parts.size());
  const std::int64_t eff_r = static_cast<std::int64_t>(k_parts.size());
  // k-slice grouping factor (Cuboid::W): slices per leader task in phase 1.
  const std::int64_t eff_w = std::clamp<std::int64_t>(c.W, 1, eff_r);
  const std::int64_t eff_groups = (eff_r + eff_w - 1) / eff_w;

  BlockedMatrix out_blocks(root.rows, root.cols, bs);
  AggMerger agg_merger(root, ctx);

  const bool real_inputs = AllInputsReal(inputs);
  const int threads = real_inputs ? ctx->Parallelism() : 1;
  const StageInstruments ins = StageInstruments::Resolve(ctx->metrics());

  auto task_id = [&](std::int64_t p, std::int64_t q, std::int64_t r) {
    return static_cast<int>((p * eff_q + q) * eff_r + r);
  };

  if (mm == kInvalidNode) {
    // Cell fusion: no model space to partition.  Output blocks are
    // round-robin over P·Q tasks — the same placement as kGrid-partitioned
    // inputs, so same-shaped inputs are consumed as narrow dependencies
    // (no shuffle).  Each task is one work item.
    const int num_tasks = static_cast<int>(eff_p * eff_q);
    const std::int64_t gr = out_grid.grid_rows();
    const std::int64_t gc = out_grid.grid_cols();
    std::vector<WorkItem> items(num_tasks);
    for (int t = 0; t < num_tasks; ++t) items[t].task = t;
    RunItems(ctx, threads, &items, ins,
             [&](std::int64_t t, LocalStageAccounting* local) -> Status {
      WorkItem& item = items[static_cast<std::size_t>(t)];
      ScopedSpan span(ctx->tracer(), "cell task " + std::to_string(t),
                      "work-item");
      span.AddArg("stage", ctx->label());
      if (t >= gr * gc) return Status::OK();  // no block of this task
      TaskFetcher fetcher(&inputs, local);
      KernelEvaluator eval(&plan, bs, fetcher.For(item.task));
      // This task's round-robin share, in the serial (bi, bj) scan order.
      for (std::int64_t cell = t; cell < gr * gc; cell += num_tasks) {
        const std::int64_t bi = cell / gc;
        const std::int64_t bj = cell % gc;
        const std::int64_t before = eval.flops();
        FUSEME_ASSIGN_OR_RETURN(Block result, eval.Eval(plan.root(), bi, bj));
        local->ChargeFlops(item.task, eval.flops() - before);
        ins.CountOutput(result);
        item.outputs.push_back({bi, bj, std::move(result)});
      }
      ins.FlushEvaluator(eval);
      return Status::OK();
    });
    FUSEME_RETURN_IF_ERROR(CommitRoundRobin(gr, gc, &items, agg_root,
                                            &agg_merger, &out_blocks, ctx));
    if (agg_root) return agg_merger.Finish(bs, num_tasks);
    return DistributedMatrix::Create(std::move(out_blocks),
                                     PartitionScheme::kGrid, num_tasks);
  }

  // One work item per non-empty (p, q) cuboid column.  Phase 2 consumes
  // phase 1's partials, so both phases stay in the column's item; phase
  // 1's k-groups run as a nested parallel loop inside it.
  std::vector<Coord> columns;
  columns.reserve(static_cast<std::size_t>(eff_p * eff_q));
  for (std::int64_t p = 0; p < eff_p; ++p) {
    for (std::int64_t q = 0; q < eff_q; ++q) {
      const auto [i0, i1] = i_parts[p];
      const auto [j0, j1] = j_parts[q];
      if (i0 == i1 || j0 == j1) continue;
      columns.emplace_back(p, q);
    }
  }

  std::vector<WorkItem> items(columns.size());
  for (std::size_t idx = 0; idx < columns.size(); ++idx) {
    items[idx].task = task_id(columns[idx].first, columns[idx].second, 0);
  }
  RunItems(ctx, threads, &items, ins,
           [&](std::int64_t idx, LocalStageAccounting* local_ptr) -> Status {
    const auto [p, q] = columns[static_cast<std::size_t>(idx)];
    WorkItem& item = items[static_cast<std::size_t>(idx)];
    const std::string pq = std::to_string(p) + "," + std::to_string(q);
    ScopedSpan span(ctx->tracer(), "cuboid column (" + pq + ")",
                    "work-item");
    span.AddArg("stage", ctx->label());
    LocalStageAccounting& local = *local_ptr;
    TaskFetcher fetcher(&inputs, &local);
    const auto [i0, i1] = i_parts[p];
    const auto [j0, j1] = j_parts[q];
    // The column's output blocks in evaluation order.
    std::vector<Coord> coords;
    coords.reserve(static_cast<std::size_t>((i1 - i0) * (j1 - j0)));
    for (std::int64_t bi = i0; bi < i1; ++bi) {
      for (std::int64_t bj = j0; bj < j1; ++bj) {
        coords.emplace_back(bi, bj);
      }
    }

    // --- Phase 1 (R > 1 only): per-k-slice partial matmuls. ---
    // The k-slices run in W-sized *groups* (Cuboid::W; 1 = the plain
    // layout).  A group is one leader task that evaluates its slices
    // sequentially: every slice fetches through the leader (TaskFetcher
    // dedups per task, so the sparse mask is charged once per group, not
    // once per slice) and the group's partials merge locally before
    // crossing into the column-wide map — only one aggregation transfer
    // per group.  Groups run in parallel and KGroupMerger folds them into
    // the column in group order; slices within a group and groups within
    // the column both sum in first-seen order, so the result is
    // bitwise-identical to W = 1 and to a serial execution.
    std::map<Coord, Block> mm_partials;
    if (eff_r > 1) {
      ScopedSpan phase1(ctx->tracer(), "phase1 partial-mm (" + pq + ")",
                        "phase");
      std::deque<KGroup> groups;  // never relocates: fetchers hold &local
      for (std::int64_t g = 0; g < eff_groups; ++g) {
        groups.emplace_back(&inputs, ctx, task_id(p, q, g * eff_w));
      }
      KGroupMerger merger(&groups, &local, &mm_partials);
      auto eval_group = [&](std::int64_t g) -> Status {
        KGroup& group = groups[static_cast<std::size_t>(g)];
        for (std::int64_t r = g * eff_w; r < std::min(eff_r, (g + 1) * eff_w);
             ++r) {
          const auto [k0, k1] = k_parts[r];
          if (k0 == k1) continue;
          KernelEvaluator eval(&plan, bs, group.fetcher.For(group.leader));
          eval.RestrictK(mm, k0, k1);
          if (driver.found()) eval.SetSparseDriver(driver);
          for (const auto& [bi, bj] : coords) {
            Result<Block> partial =
                driver.found()
                    ? eval.EvalMaskedNode(mm, driver.sparse_input, bi, bj)
                    : eval.Eval(mm, bi, bj);
            FUSEME_RETURN_IF_ERROR(partial.status());
            auto it = group.partials.find({bi, bj});
            if (it == group.partials.end()) {
              group.partials.emplace(Coord{bi, bj}, std::move(*partial));
            } else {
              FUSEME_ASSIGN_OR_RETURN(
                  it->second,
                  MergeAgg(AggFn::kSum, it->second, *partial, nullptr));
            }
          }
          group.local.ChargeFlops(group.leader, eval.flops());
          ins.FlushEvaluator(eval);
        }
        return Status::OK();
      };
      auto run_group = [&](std::int64_t g) {
        NameTraceThread(ctx->tracer());
        ScopedSpan group_span(
            ctx->tracer(),
            "phase1 k-group (" + pq + "," + std::to_string(g) + ")", "phase");
        groups[static_cast<std::size_t>(g)].status = eval_group(g);
        merger.Finish(static_cast<std::size_t>(g));
      };
      if (threads > 1) {
        GlobalThreadPool()->ParallelFor(0, eff_groups, run_group, threads);
      } else {
        for (std::int64_t g = 0; g < eff_groups; ++g) run_group(g);
      }
      FUSEME_RETURN_IF_ERROR(merger.status());
      // Phase 2 evaluates on the r=0 task, which is group 0's leader:
      // blocks group 0 already fetched are resident there.
      fetcher.InheritFetched(&groups.front().fetcher);
    }

    // --- Phase 2 (or the only phase when R == 1): evaluate the root. ---
    ScopedSpan phase2(ctx->tracer(), "phase2 root-eval (" + pq + ")",
                      "phase");
    KernelEvaluator eval(&plan, bs, fetcher.For(item.task));
    if (driver.found()) eval.SetSparseDriver(driver);
    if (eff_r > 1) {
      for (auto& [coord, block] : mm_partials) {
        eval.Inject(mm, coord.first, coord.second, std::move(block));
      }
    } else {
      eval.RestrictK(mm, 0, k_blocks);
    }
    for (const auto& [bi, bj] : coords) {
      FUSEME_ASSIGN_OR_RETURN(Block result,
                              eval.Eval(plan.root(), bi, bj));
      ins.CountOutput(result);
      item.outputs.push_back({bi, bj, std::move(result)});
    }
    local.ChargeFlops(item.task, eval.flops());
    ins.FlushEvaluator(eval);
    return Status::OK();
  });

  // Sequential commit in the serial (p, q, bi, bj) order.
  for (WorkItem& item : items) {
    FUSEME_RETURN_IF_ERROR(item.status);
    for (BlockResult& out : item.outputs) {
      if (agg_root) {
        FUSEME_RETURN_IF_ERROR(
            agg_merger.Add(item.task, out.bi, out.bj, out.block));
      } else {
        FUSEME_RETURN_IF_ERROR(
            ctx->ChargeMemory(item.task, out.block.SizeBytes()));
        out_blocks.set_block(out.bi, out.bj, std::move(out.block));
      }
    }
  }

  // Schedulable tasks: W-grouped k-slices share a leader, so the count is
  // P·Q·⌈R/W⌉ (= P·Q·R when W = 1).
  const int num_tasks = static_cast<int>(eff_p * eff_q * eff_groups);
  if (agg_root) {
    return agg_merger.Finish(bs, num_tasks);
  }
  return DistributedMatrix::Create(std::move(out_blocks),
                                   PartitionScheme::kGrid, num_tasks);
}

Result<DistributedMatrix> BroadcastFusedOperator::Execute(
    const PartialPlan& plan, const FusedInputs& inputs, StageContext* ctx) {
  const Dag& dag = plan.dag();
  const std::int64_t bs = ctx->config().block_size;
  const Node& root = dag.node(plan.root());
  const bool agg_root = root.kind == OpKind::kUnaryAgg;
  const NodeId eval_grid_node = agg_root ? root.inputs[0] : plan.root();
  const Node& grid_node = dag.node(eval_grid_node);

  const NodeId mm = plan.MainMatMul();
  const SparseDriver driver = FindSparseDriver(plan, mm);

  // Main matrix = the external input with the most *elements* (paper
  // §2.2); everything else is broadcast.
  NodeId main_input = kInvalidNode;
  std::int64_t main_cells = -1;
  for (NodeId ext : plan.ExternalInputs()) {
    const Node& n = dag.node(ext);
    if (!n.is_matrix()) continue;
    if (!inputs.contains(ext)) {
      return Status::Internal("missing input matrix for node v" +
                              std::to_string(ext));
    }
    const std::int64_t cells = n.rows * n.cols;
    if (cells > main_cells) {
      main_cells = cells;
      main_input = ext;
    }
  }

  // Parallelism: the number of Spark partitions of the main matrix caps
  // the number of tasks (paper §6.2 "overall analysis": a small sparse X
  // yields few partitions and BFO cannot use the full cluster).
  int num_tasks = ctx->config().total_tasks();
  if (main_input != kInvalidNode) {
    num_tasks = static_cast<int>(std::min<std::int64_t>(
        num_tasks, inputs.at(main_input)->SparkPartitions()));
  }
  num_tasks = std::max(num_tasks, 1);

  BlockedMatrix out_blocks(root.rows, root.cols, bs);
  AggMerger agg_merger(root, ctx);
  const NodeGrid out_grid{grid_node.rows, grid_node.cols, bs};
  const std::int64_t gr = out_grid.grid_rows();
  const std::int64_t gc = out_grid.grid_cols();

  const bool real_inputs = AllInputsReal(inputs);
  const int threads = real_inputs ? ctx->Parallelism() : 1;
  const StageInstruments ins = StageInstruments::Resolve(ctx->metrics());

  // One work item per task: receive the broadcast side inputs, then
  // evaluate this task's round-robin share of the output grid, fetching
  // the main matrix blocks it needs (repartition traffic).
  std::vector<WorkItem> items(num_tasks);
  for (int t = 0; t < num_tasks; ++t) items[t].task = t;
  RunItems(ctx, threads, &items, ins,
           [&](std::int64_t t, LocalStageAccounting* local) -> Status {
    WorkItem& item = items[static_cast<std::size_t>(t)];
    ScopedSpan span(ctx->tracer(), "broadcast task " + std::to_string(t),
                    "work-item");
    span.AddArg("stage", ctx->label());
    TaskFetcher fetcher(&inputs, local);
    // Broadcast: this task receives every block of every side input.
    for (NodeId ext : plan.ExternalInputs()) {
      if (!dag.node(ext).is_matrix() || ext == main_input) continue;
      const BlockedMatrix& side = inputs.at(ext)->blocks();
      for (std::int64_t bi = 0; bi < side.grid_rows(); ++bi) {
        for (std::int64_t bj = 0; bj < side.grid_cols(); ++bj) {
          const std::int64_t bytes = side.block(bi, bj).SizeBytes();
          local->ChargeConsolidation(item.task, bytes);
          FUSEME_RETURN_IF_ERROR(local->ChargeMemory(item.task, bytes));
          fetcher.MarkResident(item.task, ext, bi, bj);
        }
      }
    }
    KernelEvaluator eval(&plan, bs, fetcher.For(item.task));
    if (driver.found()) eval.SetSparseDriver(driver);
    // This task's round-robin share, in the serial (bi, bj) scan order.
    for (std::int64_t cell = t; cell < gr * gc; cell += num_tasks) {
      const std::int64_t bi = cell / gc;
      const std::int64_t bj = cell % gc;
      const std::int64_t before = eval.flops();
      FUSEME_ASSIGN_OR_RETURN(Block result, eval.Eval(plan.root(), bi, bj));
      local->ChargeFlops(item.task, eval.flops() - before);
      ins.CountOutput(result);
      item.outputs.push_back({bi, bj, std::move(result)});
    }
    ins.FlushEvaluator(eval);
    return Status::OK();
  });

  FUSEME_RETURN_IF_ERROR(CommitRoundRobin(gr, gc, &items, agg_root,
                                          &agg_merger, &out_blocks, ctx));
  if (agg_root) {
    return agg_merger.Finish(bs, num_tasks);
  }
  return DistributedMatrix::Create(std::move(out_blocks),
                                   PartitionScheme::kGrid, num_tasks);
}

}  // namespace fuseme
