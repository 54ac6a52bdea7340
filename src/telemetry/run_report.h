// Run reports: one finished engine run folded into a per-stage profile
// (see DESIGN.md section 12).
//
// BuildRunReport takes the pieces an ExecutionReport carries — final
// status, modeled time, per-stage StageTelemetry — plus a MetricsSnapshot,
// and distills the profile a human asks for first: where did the time go,
// what moved over the network, how parallel was each stage, and did the
// cost model see it coming.  FormatTable renders the terminal view
// (examples/metrics_report); ToJson the machine-readable one.
//
// This layer deliberately takes decomposed inputs rather than an
// ExecutionReport: the engine links the telemetry library, not the other
// way around.

#ifndef FUSEME_TELEMETRY_RUN_REPORT_H_
#define FUSEME_TELEMETRY_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/metrics.h"
#include "telemetry/prediction.h"

namespace fuseme {

/// How a stage's realized costs compared to the cost model's prediction,
/// at the factor-of-2 tolerance the prediction tests enforce.
enum class PredictionVerdict { kNone, kWithin2x, kOff };

const char* PredictionVerdictName(PredictionVerdict verdict);

/// One row of the profile table.
struct StageProfile {
  std::string label;
  std::string operator_kind;  // "CFO", "BFO", ... ("" when unpredicted)
  double wall_seconds = 0;
  double time_fraction = 0;  // of the summed stage wall time
  std::int64_t consolidation_bytes = 0;
  std::int64_t aggregation_bytes = 0;
  std::int64_t flops = 0;
  std::int64_t max_task_memory = 0;
  int num_tasks = 0;
  int threads = 1;
  PredictionVerdict prediction = PredictionVerdict::kNone;
  /// Worst |log2(actual/predicted)| over net/agg/flops/mem (0 when no
  /// prediction was recorded).
  double prediction_error_log2 = 0;
};

struct RunReport {
  Status status;
  /// Modeled cluster seconds (ExecutionReport::elapsed_seconds, the
  /// simulator's time), not host wall time; FormatTable labels it
  /// "modeled:" above the per-stage host wall columns.
  double elapsed_seconds = 0;
  std::vector<StageProfile> stages;
  MetricsSnapshot metrics;

  /// Totals over `stages`.
  [[nodiscard]] std::int64_t total_shuffle_bytes() const;
  [[nodiscard]] std::int64_t total_flops() const;

  /// Human-readable per-stage profile table plus a totals footer.
  [[nodiscard]] std::string FormatTable() const;
  /// JSON object: status, elapsed, stage rows, and the full metrics
  /// snapshot under "metrics_snapshot".
  [[nodiscard]] std::string ToJson() const;
};

RunReport BuildRunReport(const Status& status, double elapsed_seconds,
                         const std::vector<StageTelemetry>& stages,
                         MetricsSnapshot metrics);

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_RUN_REPORT_H_
