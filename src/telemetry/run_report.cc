#include "telemetry/run_report.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/json_util.h"
#include "common/string_util.h"

namespace fuseme {

const char* PredictionVerdictName(PredictionVerdict verdict) {
  switch (verdict) {
    case PredictionVerdict::kNone:
      return "none";
    case PredictionVerdict::kWithin2x:
      return "ok";
    case PredictionVerdict::kOff:
      return "off>2x";
  }
  return "unknown";
}

RunReport BuildRunReport(const Status& status, double elapsed_seconds,
                         const std::vector<StageTelemetry>& stages,
                         MetricsSnapshot metrics) {
  RunReport report;
  report.status = status;
  report.elapsed_seconds = elapsed_seconds;
  report.metrics = std::move(metrics);

  double total_wall = 0;
  for (const StageTelemetry& stage : stages) total_wall += stage.wall_seconds;

  for (const StageTelemetry& stage : stages) {
    StageProfile row;
    row.label = stage.label;
    row.wall_seconds = stage.wall_seconds;
    row.time_fraction = total_wall > 0 ? stage.wall_seconds / total_wall : 0;
    row.consolidation_bytes = stage.actual.consolidation_bytes;
    row.aggregation_bytes = stage.actual.aggregation_bytes;
    row.flops = stage.actual.flops;
    row.max_task_memory = stage.actual.max_task_memory;
    row.num_tasks = stage.actual.num_tasks;
    row.threads = stage.threads;
    if (stage.predicted.present) {
      row.operator_kind = stage.predicted.operator_kind;
      const PredictionReport prediction = BuildPredictionReport({stage});
      row.prediction_error_log2 = prediction.max_abs_log2;
      row.prediction = prediction.WithinFactor(2.0)
                           ? PredictionVerdict::kWithin2x
                           : PredictionVerdict::kOff;
    }
    report.stages.push_back(std::move(row));
  }
  return report;
}

std::int64_t RunReport::total_shuffle_bytes() const {
  std::int64_t total = 0;
  for (const StageProfile& row : stages) {
    total += row.consolidation_bytes + row.aggregation_bytes;
  }
  return total;
}

std::int64_t RunReport::total_flops() const {
  std::int64_t total = 0;
  for (const StageProfile& row : stages) total += row.flops;
  return total;
}

std::string RunReport::FormatTable() const {
  std::ostringstream out;
  out << "run status: " << status.ToString()
      << "   modeled: " << HumanSeconds(elapsed_seconds) << "\n\n";

  std::size_t label_width = 5;
  for (const StageProfile& row : stages) {
    label_width = std::max(label_width, row.label.size());
  }
  out << std::left << std::setw(static_cast<int>(label_width)) << "stage"
      << std::right << std::setw(6) << "op" << std::setw(12) << "wall"
      << std::setw(7) << "time%" << std::setw(12) << "consol" << std::setw(12)
      << "agg" << std::setw(16) << "flops" << std::setw(7) << "tasks"
      << std::setw(5) << "thr" << std::setw(12) << "mem/task" << std::setw(8)
      << "pred" << '\n';
  for (const StageProfile& row : stages) {
    std::ostringstream pct;
    pct << std::fixed << std::setprecision(1) << 100.0 * row.time_fraction;
    out << std::left << std::setw(static_cast<int>(label_width)) << row.label
        << std::right << std::setw(6)
        << (row.operator_kind.empty() ? "-" : row.operator_kind)
        << std::setw(12) << HumanSeconds(row.wall_seconds) << std::setw(7)
        << pct.str() << std::setw(12)
        << HumanBytes(static_cast<double>(row.consolidation_bytes))
        << std::setw(12)
        << HumanBytes(static_cast<double>(row.aggregation_bytes))
        << std::setw(16) << WithThousands(row.flops) << std::setw(7)
        << row.num_tasks << std::setw(5) << row.threads << std::setw(12)
        << HumanBytes(static_cast<double>(row.max_task_memory)) << std::setw(8)
        << PredictionVerdictName(row.prediction) << '\n';
  }
  out << "\ntotals: shuffle "
      << HumanBytes(static_cast<double>(total_shuffle_bytes())) << ", flops "
      << WithThousands(total_flops()) << ", stages " << stages.size() << '\n';
  return out.str();
}

std::string RunReport::ToJson() const {
  std::ostringstream out;
  out << "{\"status\": \"" << JsonEscape(status.ToString())
      << "\", \"elapsed_seconds\": " << elapsed_seconds << ", \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageProfile& row = stages[i];
    out << (i == 0 ? "" : ",") << "\n  {\"label\": \"" << JsonEscape(row.label)
        << "\", \"operator\": \"" << JsonEscape(row.operator_kind)
        << "\", \"wall_seconds\": " << row.wall_seconds
        << ", \"time_fraction\": " << row.time_fraction
        << ", \"consolidation_bytes\": " << row.consolidation_bytes
        << ", \"aggregation_bytes\": " << row.aggregation_bytes
        << ", \"flops\": " << row.flops
        << ", \"max_task_memory\": " << row.max_task_memory
        << ", \"tasks\": " << row.num_tasks << ", \"threads\": " << row.threads
        << ", \"prediction\": \"" << PredictionVerdictName(row.prediction)
        << "\", \"prediction_error_log2\": " << row.prediction_error_log2
        << '}';
  }
  // The snapshot serializer already emits a JSON object; embed it raw.
  std::string snapshot_json = metrics.ToJson();
  while (!snapshot_json.empty() && snapshot_json.back() == '\n') {
    snapshot_json.pop_back();
  }
  out << "\n], \"metrics_snapshot\": " << snapshot_json << "}\n";
  return out.str();
}

}  // namespace fuseme
