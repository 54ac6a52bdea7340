// Per-stage accounting: every distributed operator executes as one stage
// (matrix consolidation -> local operation -> matrix aggregation, §2.2) and
// records, per task, the bytes it received, the bytes it emitted into the
// aggregation shuffle, the FLOPs it executed, and its peak memory.
//
// Concurrency model (see DESIGN.md "Execution runtime"): physical
// operators run their independent work items on a thread pool.  Each work
// item charges a task-local LocalStageAccounting and folds it into the
// shared StageContext under a mutex when the item completes
// (StageContext::MergeTask).  Because the operators never release memory
// mid-stage, every per-task accumulator is a plain sum, so the merged
// totals are independent of item completion order — parallel stats are
// bitwise-identical to a serial run.

#ifndef FUSEME_RUNTIME_STAGE_H_
#define FUSEME_RUNTIME_STAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "runtime/cluster_config.h"

namespace fuseme {

class Tracer;           // telemetry/tracer.h; carried as an opaque pointer here
class MetricsRegistry;  // telemetry/metrics.h; same opaque-pointer convention

/// Accumulators for one logical task within a stage.
struct TaskAccounting {
  std::int64_t consolidation_bytes = 0;
  std::int64_t aggregation_bytes = 0;
  std::int64_t flops = 0;
  std::int64_t memory_used = 0;
  std::int64_t memory_peak = 0;
};

/// Aggregated result of a finished stage.
struct StageStats {
  std::string label;
  int num_tasks = 0;
  std::int64_t consolidation_bytes = 0;
  std::int64_t aggregation_bytes = 0;
  std::int64_t flops = 0;
  std::int64_t max_task_memory = 0;
  /// Modeled cluster seconds for this stage.  The Simulator computes it
  /// (EstimateStageSeconds + degradation re-launch overhead) and the
  /// engine writes it back on BOTH execution paths — analytic *and*
  /// real-mode runs carry a nonzero value for every stage that launched
  /// tasks.  Always modeled time from the deterministic accounting above,
  /// never host wall clock (wall time lives in StageTelemetry), so it is
  /// bitwise-identical across thread counts.
  double elapsed_seconds = 0.0;

  std::int64_t total_bytes() const {
    return consolidation_bytes + aggregation_bytes;
  }
};

/// Charging interface shared by the stage-wide context and the per-work-item
/// local accumulator, so operator plumbing (fetchers, mergers) is agnostic
/// to where a charge lands.
class StageAccounting {
 public:
  virtual ~StageAccounting() = default;

  virtual const ClusterConfig& config() const = 0;

  virtual void ChargeConsolidation(int task, std::int64_t bytes) = 0;
  virtual void ChargeAggregation(int task, std::int64_t bytes) = 0;
  virtual void ChargeFlops(int task, std::int64_t flops) = 0;

  /// Charges `bytes` of live memory on `task`; fails with OutOfMemory when
  /// the running total would exceed the task budget.
  virtual Status ChargeMemory(int task, std::int64_t bytes) = 0;
  /// Releases previously charged memory (peak is retained).
  virtual void ReleaseMemory(int task, std::int64_t bytes) = 0;
};

/// Mutable accounting context handed to a physical operator while it runs.
/// Task ids are logical (0..num_tasks-1 for the stage); the context grows on
/// demand.  Memory charges are validated against the per-task budget so an
/// operator that over-replicates reports OutOfMemory exactly like the
/// paper's failed BFO/RFO runs.
///
/// Every accounting method takes the context mutex, so the context is
/// thread-safe as a whole — the per-task accumulators are
/// GUARDED_BY(merge_mu_) and the Clang thread-safety
/// analysis proves no path touches them unlocked.  Concurrent work items
/// still charge a LocalStageAccounting and fold it in via MergeTask:
/// that keeps the hot per-block charges task-local (no contention) and
/// the merged totals order-independent; the direct Charge* path is the
/// serial/meta-mode convenience, paying one uncontended lock per charge.
class StageContext : public StageAccounting {
 public:
  StageContext(std::string label, const ClusterConfig& config)
      : label_(std::move(label)), config_(config) {}

  const ClusterConfig& config() const override { return config_; }
  const std::string& label() const { return label_; }

  /// Optional span sink for this stage's work items (telemetry); null
  /// disables tracing.  The context does not own the tracer.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Optional metrics registry for this stage's work items; null disables
  /// instrumentation (pointer test only).  Not owned.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

  void ChargeConsolidation(int task, std::int64_t bytes) override;
  void ChargeAggregation(int task, std::int64_t bytes) override;
  void ChargeFlops(int task, std::int64_t flops) override;
  Status ChargeMemory(int task, std::int64_t bytes) override;
  void ReleaseMemory(int task, std::int64_t bytes) override;

  /// Folds a completed work item's accounting for `task` into this context
  /// under the context mutex, re-validating the memory budget on the merged
  /// totals.  Safe to call from concurrent work items.
  Status MergeTask(int task, const TaskAccounting& local);

  /// Effective thread count for executing this stage's work items:
  /// config().local_threads, with 0 resolved to the process-wide default.
  int Parallelism() const;

  int num_tasks() const;
  /// Copy of the accumulators for `task_id` (zeroes when out of range).
  /// By value: a reference into the guarded vector would escape the lock.
  TaskAccounting task(int task_id) const;

  /// Rolls the per-task accumulators into a StageStats (elapsed not set).
  StageStats Finalize() const;

 private:
  TaskAccounting& GrowTo(int task) REQUIRES(merge_mu_);

  // label_/config_ are set at construction and the hook pointers before
  // the stage launches work items; all are read-only while tasks run, so
  // only the accumulators below need the mutex.
  std::string label_;
  ClusterConfig config_;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  mutable Mutex merge_mu_;
  std::vector<TaskAccounting> tasks_ GUARDED_BY(merge_mu_);
};

/// Task-local accounting for one work item of a parallel operator, or for
/// one k-group inside a cuboid column.  Not thread-safe (each owner has
/// its own); Flush() folds every touched task into the parent StageContext
/// via MergeTask.  The per-task memory budget is enforced locally too, so
/// an over-replicating item fails fast with the same OutOfMemory message a
/// serial run would produce.
class LocalStageAccounting final : public StageAccounting {
 public:
  explicit LocalStageAccounting(StageContext* parent) : parent_(parent) {}

  const ClusterConfig& config() const override { return parent_->config(); }

  void ChargeConsolidation(int task, std::int64_t bytes) override;
  void ChargeAggregation(int task, std::int64_t bytes) override;
  void ChargeFlops(int task, std::int64_t flops) override;
  Status ChargeMemory(int task, std::int64_t bytes) override;
  void ReleaseMemory(int task, std::int64_t bytes) override;

  /// Folds every task charged in `other` into this accounting by the same
  /// rule as StageContext::MergeTask, then clears `other`.  Used to merge
  /// a cuboid column's k-groups into the column's item in group order.
  /// Returns the first budget error, if any.
  Status Absorb(LocalStageAccounting* other);

  /// Merges every charged task into the parent context (thread-safe) and
  /// clears the local state.  Returns the first merge error, if any.
  Status Flush();

 private:
  StageContext* parent_;
  std::map<int, TaskAccounting> tasks_;
};

}  // namespace fuseme

#endif  // FUSEME_RUNTIME_STAGE_H_
