#include "telemetry/run_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/prediction.h"

namespace fuseme {
namespace {

StageTelemetry MakeStage(const std::string& label, double wall_seconds,
                         std::int64_t flops, double predicted_flops) {
  StageTelemetry t;
  t.label = label;
  t.wall_seconds = wall_seconds;
  t.threads = 4;
  t.actual.label = label;
  t.actual.num_tasks = 6;
  t.actual.consolidation_bytes = 1000;
  t.actual.aggregation_bytes = 500;
  t.actual.flops = flops;
  t.actual.max_task_memory = 2048;
  if (predicted_flops > 0) {
    t.predicted.present = true;
    t.predicted.operator_kind = "CFO";
    t.predicted.num_tasks = 6;
    t.predicted.net_bytes = 1000;
    t.predicted.agg_bytes = 500;
    t.predicted.flops = predicted_flops;
    t.predicted.mem_per_task = 2048;
  }
  return t;
}

TEST(RunReportTest, ProfilesStagesWithVerdicts) {
  std::vector<StageTelemetry> stages;
  stages.push_back(MakeStage("good", 0.75, 1 << 20, 1 << 20));
  stages.push_back(MakeStage("drifted", 0.25, 1 << 20, 100.0));
  stages.push_back(MakeStage("unpredicted", 0.0, 10, 0));

  MetricsRegistry registry;
  registry.GetCounter(metric_names::kEngineRuns, {{"status", "ok"}})
      ->Increment();
  RunReport report = BuildRunReport(Status::OK(), 12.5, stages,
                                    registry.Snapshot());

  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[0].prediction, PredictionVerdict::kWithin2x);
  EXPECT_EQ(report.stages[1].prediction, PredictionVerdict::kOff);
  EXPECT_GT(report.stages[1].prediction_error_log2, 1.0);
  EXPECT_EQ(report.stages[2].prediction, PredictionVerdict::kNone);

  EXPECT_DOUBLE_EQ(report.stages[0].time_fraction, 0.75);
  EXPECT_DOUBLE_EQ(report.stages[1].time_fraction, 0.25);
  EXPECT_EQ(report.total_shuffle_bytes(), 3 * 1500);
  EXPECT_EQ(report.total_flops(), (1 << 20) + (1 << 20) + 10);
}

TEST(RunReportTest, TableListsEveryStage) {
  std::vector<StageTelemetry> stages;
  stages.push_back(MakeStage("alpha-stage", 1.0, 100, 100));
  stages.push_back(MakeStage("beta-stage", 1.0, 100, 0));
  RunReport report =
      BuildRunReport(Status::OK(), 2.0, stages, MetricsSnapshot{});
  const std::string table = report.FormatTable();
  EXPECT_NE(table.find("alpha-stage"), std::string::npos);
  EXPECT_NE(table.find("beta-stage"), std::string::npos);
  EXPECT_NE(table.find("totals:"), std::string::npos);
  EXPECT_NE(table.find("OK"), std::string::npos);
  // The header's time is the modeled cluster time, never host wall time.
  const std::string header = table.substr(0, table.find('\n'));
  EXPECT_NE(header.find("modeled: " + HumanSeconds(2.0)), std::string::npos)
      << header;
  EXPECT_EQ(header.find("wall"), std::string::npos) << header;
}

TEST(RunReportTest, JsonEmbedsMetricsSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("fuseme_probe_total")->Add(3);
  std::vector<StageTelemetry> stages;
  stages.push_back(MakeStage("only", 1.0, 100, 100));
  RunReport report =
      BuildRunReport(Status::OK(), 1.0, stages, registry.Snapshot());
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"metrics_snapshot\""), std::string::npos);
  EXPECT_NE(json.find("fuseme_probe_total"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  // The embedded snapshot must itself stay machine-readable.
  const std::size_t begin = json.find("\"metrics_snapshot\": ");
  ASSERT_NE(begin, std::string::npos);
}

TEST(RunReportTest, FailedRunKeepsStatus) {
  RunReport report = BuildRunReport(Status::OutOfMemory("task 3"), 0.0, {},
                                    MetricsSnapshot{});
  EXPECT_FALSE(report.status.ok());
  const std::string table = report.FormatTable();
  EXPECT_NE(table.find("task 3"), std::string::npos);
}

}  // namespace
}  // namespace fuseme
