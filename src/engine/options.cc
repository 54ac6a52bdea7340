#include <string>

#include "engine/engine.h"

namespace fuseme {

namespace {

Status Invalid(const std::string& message) {
  return Status::InvalidArgument("invalid EngineOptions: " + message);
}

Status ValidateCluster(const ClusterConfig& c) {
  if (c.num_nodes < 1) {
    return Invalid("cluster.num_nodes must be >= 1, got " +
                   std::to_string(c.num_nodes));
  }
  if (c.tasks_per_node < 1) {
    return Invalid("cluster.tasks_per_node must be >= 1, got " +
                   std::to_string(c.tasks_per_node));
  }
  if (c.task_memory_budget <= 0) {
    return Invalid("cluster.task_memory_budget must be positive, got " +
                   std::to_string(c.task_memory_budget));
  }
  if (c.block_size < 1) {
    return Invalid("cluster.block_size must be >= 1, got " +
                   std::to_string(c.block_size));
  }
  if (!(c.net_bandwidth > 0)) {
    return Invalid("cluster.net_bandwidth must be positive");
  }
  if (!(c.compute_bandwidth > 0)) {
    return Invalid("cluster.compute_bandwidth must be positive");
  }
  if (!(c.timeout_seconds > 0)) {
    return Invalid("cluster.timeout_seconds must be positive");
  }
  // Written as !(x >= 0) so NaN fails too: a NaN here would reach the
  // simulator's clock, where `elapsed > timeout` is false and the run
  // could never report T.O.
  if (!(c.task_launch_overhead >= 0)) {
    return Invalid("cluster.task_launch_overhead must be >= 0");
  }
  if (!(c.shuffle_cpu_factor >= 0)) {
    return Invalid("cluster.shuffle_cpu_factor must be >= 0");
  }
  if (c.local_threads < 0) {
    return Invalid("cluster.local_threads must be >= 0 (0 = process default)");
  }
  if (!(c.overlap_factor >= 0.0 && c.overlap_factor <= 1.0)) {
    return Invalid("cluster.overlap_factor must lie in [0, 1]");
  }
  return Status::OK();
}

Status ValidateObservability(const ObservabilityOptions& o) {
  if (o.journal_capacity < 0) {
    return Invalid("observability.journal_capacity must be >= 0 (0 disables)"
                   ", got " + std::to_string(o.journal_capacity));
  }
  if (o.crash_dump && o.journal_capacity == 0) {
    return Invalid("observability.crash_dump requires journal_capacity > 0");
  }
  return Status::OK();
}

}  // namespace

Status EngineOptions::Validate() const {
  FUSEME_RETURN_IF_ERROR(ValidateCluster(cluster));
  if (balance_sparsity && analytic) {
    // The analytic path models aggregate totals, which skew-aware splits
    // do not change — asking for both is a configuration bug.
    return Invalid(
        "balance_sparsity has no effect in analytic mode; drop one flag");
  }
  FUSEME_RETURN_IF_ERROR(ValidateObservability(observability));
  return Status::OK();
}

}  // namespace fuseme
