#include "runtime/stage.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace fuseme {

namespace {

Status OverBudget(const std::string& label, int task, std::int64_t used,
                  std::int64_t budget) {
  return Status::OutOfMemory(
      label + ": task " + std::to_string(task) + " needs " +
      HumanBytes(static_cast<double>(used)) + " > budget " +
      HumanBytes(static_cast<double>(budget)));
}

/// The one rule for folding a finished work item's (or k-group's)
/// accumulators for `task` into an enclosing record: plain sums, a peak
/// that stacks the item's peak on the memory already live, and the budget
/// re-checked on the merged total.
Status MergeTaskAccounting(const std::string& label, int task,
                           std::int64_t budget, const TaskAccounting& from,
                           TaskAccounting* into) {
  into->consolidation_bytes += from.consolidation_bytes;
  into->aggregation_bytes += from.aggregation_bytes;
  into->flops += from.flops;
  into->memory_peak =
      std::max(into->memory_peak, into->memory_used + from.memory_peak);
  into->memory_used += from.memory_used;
  if (into->memory_used > budget) {
    return OverBudget(label, task, into->memory_used, budget);
  }
  return Status::OK();
}

}  // namespace

TaskAccounting& StageContext::GrowTo(int task) {
  FUSEME_CHECK_GE(task, 0);
  if (task >= static_cast<int>(tasks_.size())) {
    tasks_.resize(task + 1);
  }
  return tasks_[task];
}

void StageContext::ChargeConsolidation(int task, std::int64_t bytes) {
  MutexLock lock(merge_mu_);
  GrowTo(task).consolidation_bytes += bytes;
}

void StageContext::ChargeAggregation(int task, std::int64_t bytes) {
  MutexLock lock(merge_mu_);
  GrowTo(task).aggregation_bytes += bytes;
}

void StageContext::ChargeFlops(int task, std::int64_t flops) {
  MutexLock lock(merge_mu_);
  GrowTo(task).flops += flops;
}

Status StageContext::ChargeMemory(int task, std::int64_t bytes) {
  MutexLock lock(merge_mu_);
  TaskAccounting& acct = GrowTo(task);
  acct.memory_used += bytes;
  acct.memory_peak = std::max(acct.memory_peak, acct.memory_used);
  if (acct.memory_used > config_.task_memory_budget) {
    return OverBudget(label_, task, acct.memory_used,
                      config_.task_memory_budget);
  }
  return Status::OK();
}

void StageContext::ReleaseMemory(int task, std::int64_t bytes) {
  MutexLock lock(merge_mu_);
  TaskAccounting& acct = GrowTo(task);
  acct.memory_used -= bytes;
  FUSEME_CHECK_GE(acct.memory_used, 0);
}

Status StageContext::MergeTask(int task, const TaskAccounting& local) {
  MutexLock lock(merge_mu_);
  return MergeTaskAccounting(label_, task, config_.task_memory_budget, local,
                             &GrowTo(task));
}

int StageContext::Parallelism() const {
  return config_.local_threads > 0 ? config_.local_threads
                                   : GlobalParallelism();
}

int StageContext::num_tasks() const {
  MutexLock lock(merge_mu_);
  return static_cast<int>(tasks_.size());
}

TaskAccounting StageContext::task(int task_id) const {
  MutexLock lock(merge_mu_);
  if (task_id < 0 || task_id >= static_cast<int>(tasks_.size())) {
    return TaskAccounting{};
  }
  return tasks_[task_id];
}

StageStats StageContext::Finalize() const {
  MutexLock lock(merge_mu_);
  StageStats stats;
  stats.label = label_;
  stats.num_tasks = static_cast<int>(tasks_.size());
  for (const TaskAccounting& t : tasks_) {
    stats.consolidation_bytes += t.consolidation_bytes;
    stats.aggregation_bytes += t.aggregation_bytes;
    stats.flops += t.flops;
    stats.max_task_memory = std::max(stats.max_task_memory, t.memory_peak);
  }
  return stats;
}

void LocalStageAccounting::ChargeConsolidation(int task, std::int64_t bytes) {
  tasks_[task].consolidation_bytes += bytes;
}

void LocalStageAccounting::ChargeAggregation(int task, std::int64_t bytes) {
  tasks_[task].aggregation_bytes += bytes;
}

void LocalStageAccounting::ChargeFlops(int task, std::int64_t flops) {
  tasks_[task].flops += flops;
}

Status LocalStageAccounting::ChargeMemory(int task, std::int64_t bytes) {
  TaskAccounting& acct = tasks_[task];
  acct.memory_used += bytes;
  acct.memory_peak = std::max(acct.memory_peak, acct.memory_used);
  if (acct.memory_used > config().task_memory_budget) {
    return OverBudget(parent_->label(), task, acct.memory_used,
                      config().task_memory_budget);
  }
  return Status::OK();
}

void LocalStageAccounting::ReleaseMemory(int task, std::int64_t bytes) {
  TaskAccounting& acct = tasks_[task];
  acct.memory_used -= bytes;
  FUSEME_CHECK_GE(acct.memory_used, 0);
}

Status LocalStageAccounting::Absorb(LocalStageAccounting* other) {
  Status first;
  for (const auto& [task, acct] : other->tasks_) {
    Status s = MergeTaskAccounting(parent_->label(), task,
                                   config().task_memory_budget, acct,
                                   &tasks_[task]);
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  other->tasks_.clear();
  return first;
}

Status LocalStageAccounting::Flush() {
  Status first;
  for (const auto& [task, acct] : tasks_) {
    Status s = parent_->MergeTask(task, acct);
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  tasks_.clear();
  return first;
}

}  // namespace fuseme
