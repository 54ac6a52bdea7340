// Simulator: turns per-stage accounting into modeled elapsed time.
//
// Model (one stage): tasks are scheduled in waves over the N·Tc slots,
// with the stage's bytes and FLOPs spread evenly across its tasks.  Waves
// run back to back — a wave must finish before the next one launches — so
// each contributes its own busy window:
//
//   wave(n)   = max(net_share(n) · (1 + shuffle_cpu_factor), comp(n))
//     net_share(n) = n · bytes/task / (nodes_used(n) · B̂n)
//     comp(n)      = FLOPs/task / per-slot compute
//   elapsed   = Σ wave(n_w) + waves · task_launch_overhead
//
// A stage that fits in one wave reduces to the familiar
// max(net · (1+factor), comp) + overhead.  Communication and computation
// overlap within a wave (paper Eq. 2 takes the max), but Spark's shuffle
// burns CPU while moving data, which the paper calls out as the reason
// elapsed-time gaps exceed communication gaps; shuffle_cpu_factor models
// that.  The clock accumulates across stages and trips the timeout.

#ifndef FUSEME_RUNTIME_SIMULATOR_H_
#define FUSEME_RUNTIME_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "runtime/cluster_config.h"
#include "runtime/stage.h"

namespace fuseme {

class Simulator {
 public:
  explicit Simulator(const ClusterConfig& config) : config_(config) {}

  const ClusterConfig& config() const { return config_; }

  /// Computes stats->elapsed_seconds, appends the stage to the history,
  /// and advances the clock.  `relaunches` counts the OOM degradation
  /// rungs the stage climbed before it completed; each re-launch costs one
  /// task_launch_overhead, so the ladder advances the modeled clock (and
  /// can trip the run deadline like any other stage time).  Returns
  /// TimedOut when the cumulative clock passes the configured horizon.
  Status CompleteStage(StageStats stats, std::int64_t relaunches = 0);

  /// Modeled elapsed for a stage without committing it to the clock.
  double EstimateStageSeconds(const StageStats& stats) const;

  double elapsed_seconds() const { return elapsed_seconds_; }
  const std::vector<StageStats>& stages() const { return stages_; }

  /// Sum of consolidation+aggregation bytes over completed stages — the
  /// paper's "communication cost".
  std::int64_t total_bytes() const;
  std::int64_t total_flops() const;

  void Reset() {
    elapsed_seconds_ = 0;
    stages_.clear();
  }

 private:
  ClusterConfig config_;
  double elapsed_seconds_ = 0.0;
  std::vector<StageStats> stages_;
};

}  // namespace fuseme

#endif  // FUSEME_RUNTIME_SIMULATOR_H_
