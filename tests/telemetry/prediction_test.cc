#include "telemetry/prediction.h"

#include <gtest/gtest.h>

#include <cmath>

#include "compile_execute.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

StageTelemetry MakeStage(const std::string& label, double pred_net,
                         double pred_flops, std::int64_t actual_net,
                         std::int64_t actual_flops) {
  StageTelemetry t;
  t.label = label;
  t.predicted.present = true;
  t.predicted.operator_kind = "CFO";
  t.predicted.net_bytes = pred_net;
  t.predicted.flops = pred_flops;
  t.actual.label = label;
  t.actual.consolidation_bytes = actual_net;
  t.actual.flops = actual_flops;
  return t;
}

TEST(PredictionReportTest, ExactPredictionHasZeroDrift) {
  PredictionReport report = BuildPredictionReport(
      {MakeStage("s", 1 << 20, 1 << 20, 1 << 20, 1 << 20)});
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(report.stages[0].net_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.stages[0].flops_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.max_abs_log2, 0.0);
  EXPECT_TRUE(report.WithinFactor(1.0 + 1e-12));
}

TEST(PredictionReportTest, RatiosAreActualOverPredicted) {
  PredictionReport report = BuildPredictionReport(
      {MakeStage("s", 1 << 20, 1 << 20, 1 << 21, 1 << 18)});
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(report.stages[0].net_ratio, 2.0);
  EXPECT_DOUBLE_EQ(report.stages[0].flops_ratio, 0.25);
  EXPECT_DOUBLE_EQ(report.max_abs_log2, 2.0);  // flops off by 4x
  EXPECT_FALSE(report.WithinFactor(2.0));
  EXPECT_TRUE(report.WithinFactor(4.0));
}

TEST(PredictionReportTest, NoiseFloorSuppressesEmptyDimensions) {
  // Both sides below the floor: ratio pinned to 1.0 (no 0/0 artifacts).
  PredictionReport report =
      BuildPredictionReport({MakeStage("s", 0, 10, 100, 0)});
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(report.stages[0].net_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.stages[0].flops_ratio, 1.0);
}

TEST(PredictionReportTest, SkipsStagesWithoutPrediction) {
  StageTelemetry no_pred;
  no_pred.label = "failed before planning";
  PredictionReport report = BuildPredictionReport(
      {no_pred, MakeStage("s", 1 << 20, 1 << 20, 1 << 20, 1 << 20)});
  EXPECT_EQ(report.stages.size(), 1u);
}

TEST(PredictionReportTest, FormatTableMentionsEveryStage) {
  const std::string table = FormatPredictionTable(
      {MakeStage("alpha", 1 << 20, 1 << 20, 1 << 20, 1 << 20),
       MakeStage("beta", 1 << 20, 1 << 20, 1 << 21, 1 << 20)});
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("net"), std::string::npos);
  EXPECT_NE(table.find("flops"), std::string::npos);
}

// --- Predicted-vs-actual on a real fused run (the ISSUE acceptance
// criterion): the cost model's NetEst/ComEst for the chosen cuboid must
// agree with the runtime's measured charges within a documented factor of
// 2 per dimension (|log2 ratio| <= 1) on the reference NMF plan. ---

class PredictionAgreementTest : public ::testing::TestWithParam<SystemMode> {
};

TEST_P(PredictionAgreementTest, RealChargesTrackPrediction) {
  NmfPattern q = BuildNmfPattern(160, 160, 32, /*x_nnz=*/2560);
  EngineOptions options;
  options.system = GetParam();
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 8;

  SparseMatrix x = RandomSparse(160, 160, 0.1, /*seed=*/81, 1.0, 2.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(160, 32, 82), 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(160, 32, 83), 8);

  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok())
      << SystemModeName(GetParam()) << ": " << run.report.status;
  ASSERT_FALSE(run.report.telemetry.empty());
  ASSERT_EQ(run.report.telemetry.size(), run.report.stages.size());

  const PredictionReport report =
      BuildPredictionReport(run.report.telemetry);
  ASSERT_FALSE(report.stages.empty());
  // Documented tolerance (DESIGN.md section 10): every per-stage net /
  // agg / flops / mem ratio within a factor of 2 on this reference
  // workload, above the noise floors.
  EXPECT_TRUE(report.WithinFactor(2.0))
      << SystemModeName(GetParam()) << ": max |log2 ratio| = "
      << report.max_abs_log2 << "\n"
      << FormatPredictionTable(run.report.telemetry);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PredictionAgreementTest,
                         ::testing::Values(SystemMode::kFuseMe,
                                           SystemMode::kSystemDs,
                                           SystemMode::kMatFast,
                                           SystemMode::kDistMe,
                                           SystemMode::kTensorFlow),
                         [](const auto& info) {
                           return std::string(SystemModeName(info.param));
                         });

TEST(PredictionTelemetryTest, EveryExecutedStageCarriesAPrediction) {
  NmfPattern q = BuildNmfPattern(160, 160, 32, /*x_nnz=*/2560);
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.analytic = true;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, q.dag, {});
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  ASSERT_EQ(run.report.telemetry.size(), run.report.stages.size());
  for (std::size_t i = 0; i < run.report.telemetry.size(); ++i) {
    const StageTelemetry& t = run.report.telemetry[i];
    EXPECT_TRUE(t.predicted.present) << t.label;
    EXPECT_EQ(t.label, run.report.stages[i].label);
    EXPECT_GE(t.predicted.cuboid.volume(), 1);
    EXPECT_GT(t.actual.elapsed_seconds, 0.0) << t.label;
  }
}

TEST(PredictionTelemetryTest, EngineRecordsStageSpans) {
  NmfPattern q = BuildNmfPattern(160, 160, 32, /*x_nnz=*/2560);
  Tracer tracer;
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 8;
  options.tracer = &tracer;

  SparseMatrix x = RandomSparse(160, 160, 0.1, /*seed=*/81, 1.0, 2.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(160, 32, 82), 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(160, 32, 83), 8);

  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status;

  std::size_t stage_spans = 0, work_item_spans = 0;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.category == "stage") ++stage_spans;
    if (span.category == "work-item") ++work_item_spans;
    EXPECT_GE(span.end_us, span.begin_us);
  }
  EXPECT_EQ(stage_spans, run.report.stages.size());
  EXPECT_GT(work_item_spans, 0u);
  // Every work-item span falls inside some stage span's window.
  Result<std::vector<TraceSpan>> round_trip =
      ParseChromeTrace(tracer.ToChromeJson());
  ASSERT_TRUE(round_trip.ok()) << round_trip.status();
  EXPECT_EQ(round_trip->size(), tracer.size());
}

}  // namespace
}  // namespace fuseme
