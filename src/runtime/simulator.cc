#include "runtime/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace fuseme {

double Simulator::EstimateStageSeconds(const StageStats& stats) const {
  if (stats.num_tasks == 0) return 0.0;
  const int slots = config_.total_tasks();

  // Work is spread evenly across the stage's tasks; tasks run in waves of
  // at most `slots`.  A wave's duration is bounded by its compute (one
  // task's FLOPs per slot) and its share of the network traffic, so a
  // 3-wave stage costs three busy windows, not one — waves cannot overlap
  // (a wave's tasks must finish before the next wave's launch).
  const double per_task_bytes = static_cast<double>(stats.total_bytes()) /
                                static_cast<double>(stats.num_tasks);
  const double per_task_flops = static_cast<double>(stats.flops) /
                                static_cast<double>(stats.num_tasks);

  auto wave_seconds = [&](int tasks_in_wave) {
    const int used_nodes = std::min(
        (tasks_in_wave + config_.tasks_per_node - 1) / config_.tasks_per_node,
        config_.num_nodes);
    const double net_time =
        per_task_bytes * static_cast<double>(tasks_in_wave) /
        (static_cast<double>(used_nodes) * config_.net_bandwidth);
    const double comp_time = per_task_flops / config_.per_task_compute();
    // Network transfers burn CPU on the shuffle path; when communication
    // dominates, the cores it occupies stretch the wave beyond pure
    // max(net, comp).
    const double stretched_net =
        net_time * (1.0 + config_.shuffle_cpu_factor);
    // Compute/communication overlap (DESIGN.md section 14): with overlap
    // factor f, the overlappable fraction of the shorter phase hides
    // behind the longer one.  f = 1 (the default) gives the classic
    // max(net, comp) wave; f = 0 is a fully serial net + comp pipeline.
    const double f =
        std::clamp(config_.overlap_factor, 0.0, 1.0);
    const double hi = std::max(stretched_net, comp_time);
    const double lo = std::min(stretched_net, comp_time);
    return hi + (1.0 - f) * lo;
  };

  const int full_waves = stats.num_tasks / slots;
  const int tail_tasks = stats.num_tasks % slots;
  double busy = static_cast<double>(full_waves) * wave_seconds(slots);
  if (tail_tasks > 0) busy += wave_seconds(tail_tasks);

  const int waves = full_waves + (tail_tasks > 0 ? 1 : 0);
  return busy + static_cast<double>(waves) * config_.task_launch_overhead;
}

Status Simulator::CompleteStage(StageStats stats, std::int64_t relaunches) {
  stats.elapsed_seconds = EstimateStageSeconds(stats);
  if (relaunches > 0) {
    // Every degradation rung was a failed stage-level attempt: one more
    // scheduling round trip on the stage's critical path.
    stats.elapsed_seconds +=
        static_cast<double>(relaunches) * config_.task_launch_overhead;
  }
  elapsed_seconds_ += stats.elapsed_seconds;
  stages_.push_back(std::move(stats));
  if (elapsed_seconds_ > config_.timeout_seconds) {
    return Status::TimedOut(
        "simulated elapsed " + HumanSeconds(elapsed_seconds_) +
        " exceeded horizon " + HumanSeconds(config_.timeout_seconds));
  }
  return Status::OK();
}

std::int64_t Simulator::total_bytes() const {
  std::int64_t total = 0;
  for (const StageStats& s : stages_) total += s.total_bytes();
  return total;
}

std::int64_t Simulator::total_flops() const {
  std::int64_t total = 0;
  for (const StageStats& s : stages_) total += s.flops;
  return total;
}

}  // namespace fuseme
