// EngineOptions::Validate / Engine::Create: malformed
// configurations must be rejected with InvalidArgument before any engine
// machinery runs, and the RunResult passthroughs must mirror the report.

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

EngineOptions SmallValid() {
  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 8;
  return options;
}

TEST(OptionsValidationTest, DefaultsValidate) {
  EXPECT_TRUE(EngineOptions{}.Validate().ok());
  EXPECT_TRUE(SmallValid().Validate().ok());
}

TEST(OptionsValidationTest, RejectsZeroNodeCluster) {
  EngineOptions options = SmallValid();
  options.cluster.num_nodes = 0;
  const Status status = options.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("num_nodes"), std::string::npos);
}

TEST(OptionsValidationTest, RejectsBadClusterShape) {
  auto expect_invalid = [](EngineOptions options, const char* what) {
    EXPECT_TRUE(options.Validate().IsInvalidArgument()) << what;
  };
  EngineOptions o = SmallValid();
  o.cluster.tasks_per_node = 0;
  expect_invalid(o, "tasks_per_node");
  o = SmallValid();
  o.cluster.task_memory_budget = 0;
  expect_invalid(o, "zero budget");
  o = SmallValid();
  o.cluster.task_memory_budget = -4096;
  expect_invalid(o, "negative budget");
  o = SmallValid();
  o.cluster.block_size = 0;
  expect_invalid(o, "block_size");
  o = SmallValid();
  o.cluster.net_bandwidth = 0.0;
  expect_invalid(o, "net_bandwidth");
  o = SmallValid();
  o.cluster.compute_bandwidth = -1.0;
  expect_invalid(o, "compute_bandwidth");
  o = SmallValid();
  o.cluster.timeout_seconds = 0.0;
  expect_invalid(o, "timeout");
  o = SmallValid();
  o.cluster.task_launch_overhead = -0.1;
  expect_invalid(o, "launch overhead");
  o = SmallValid();
  o.cluster.shuffle_cpu_factor = -1.0;
  expect_invalid(o, "shuffle factor");
  o = SmallValid();
  o.cluster.local_threads = -2;
  expect_invalid(o, "local_threads");
  o = SmallValid();
  o.cluster.overlap_factor = 1.5;
  expect_invalid(o, "overlap_factor above 1");
  o = SmallValid();
  o.cluster.overlap_factor = -0.1;
  expect_invalid(o, "overlap_factor below 0");
  // NaN compares false against every bound, so each check must be written
  // to fail on it; a NaN reaching the simulator's clock could never trip
  // the run deadline.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  o = SmallValid();
  o.cluster.task_launch_overhead = nan;
  expect_invalid(o, "NaN launch overhead");
  o = SmallValid();
  o.cluster.shuffle_cpu_factor = nan;
  expect_invalid(o, "NaN shuffle factor");
  o = SmallValid();
  o.cluster.overlap_factor = nan;
  expect_invalid(o, "NaN overlap_factor");
}

TEST(OptionsValidationTest, RejectsContradictoryFlags) {
  EngineOptions options = SmallValid();
  options.analytic = true;
  options.balance_sparsity = true;
  const Status status = options.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("balance_sparsity"), std::string::npos);
  // Each flag alone is fine.
  options.balance_sparsity = false;
  EXPECT_TRUE(options.Validate().ok());
  options.analytic = false;
  options.balance_sparsity = true;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(OptionsValidationTest, RejectsBadObservability) {
  EngineOptions o = SmallValid();
  o.observability.journal_capacity = -1;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  // Crash dump needs the journal it would dump.
  o = SmallValid();
  o.observability.crash_dump = true;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
}

TEST(OptionsValidationTest, AcceptsEnabledObservability) {
  MetricsRegistry registry;
  EngineOptions o = SmallValid();
  o.metrics = &registry;
  o.observability.journal_capacity = 128;
  o.observability.crash_dump = true;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(OptionsValidationTest, EngineCreateBuildsTheJournal) {
  MetricsRegistry registry;
  EngineOptions o = SmallValid();
  o.metrics = &registry;
  o.observability.journal_capacity = 64;
  Result<Engine> engine = Engine::Create(o);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_NE(engine->journal(), nullptr);

  // Default options: no journal.
  Result<Engine> plain = Engine::Create(SmallValid());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->journal(), nullptr);
}

TEST(OptionsValidationTest, EngineOwnedJournalRecordsEachExecute) {
  // The engine-owned flight recorder is the one journal: every Execute
  // brackets its stages with a run-start and a run-finish event.
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0), 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(26, 6, 52), 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(6, 20, 53), 8);

  EngineOptions o = SmallValid();
  o.observability.journal_capacity = 512;
  const Engine engine = MakeEngine(o);
  ASSERT_NE(engine.journal(), nullptr);
  Result<CompiledPlan> compiled = engine.Compile(q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.Execute(*compiled, inputs).ok());
  }

  int starts = 0;
  int finishes = 0;
  for (const JournalEvent& e : engine.journal()->Snapshot()) {
    if (e.id == event_names::kRunStart) ++starts;
    if (e.id == event_names::kRunFinish) ++finishes;
  }
  EXPECT_EQ(engine.journal()->overwritten(), 0);
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(finishes, 2);
}

TEST(OptionsValidationTest, EngineCopiesShareTheJournal) {
  // Copies of an engine share its journal, which lives as long as the
  // last copy.
  EngineOptions o = SmallValid();
  o.observability.journal_capacity = 64;
  std::optional<Engine> original = MakeEngine(o);
  const Engine copy = *original;
  ASSERT_NE(copy.journal(), nullptr);
  EXPECT_EQ(copy.journal(), original->journal());
  original.reset();
  copy.journal()->Emit(LogLevel::kInfo, event_names::kRunStart);
  EXPECT_EQ(copy.journal()->total_emitted(), 1);
}

/// Runs GNMF once on an engine with the crash dump on, then fails a
/// FUSEME_CHECK.
void RunOnceThenFailCheck() {
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0), 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(26, 6, 52), 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(6, 20, 53), 8);
  EngineOptions o = SmallValid();
  o.observability.journal_capacity = 64;
  o.observability.crash_dump = true;
  const Engine engine = MakeEngine(o);
  FUSEME_CHECK(CompileAndExecute(engine, q.dag, inputs).ok());
  FUSEME_CHECK(inputs.empty()) << "deliberate failure";
}

TEST(OptionsValidationDeathTest, CrashDumpWritesTheEngineJournal) {
  // The crash dump writes the engine-owned journal, run-start event
  // included, to stderr before the process aborts.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(RunOnceThenFailCheck(), "fuseme\\.engine\\.run_start");
}

TEST(OptionsValidationTest, EngineCreateRejectsInvalidOptions) {
  EngineOptions options = SmallValid();
  options.cluster.num_nodes = 0;
  Result<Engine> engine = Engine::Create(options);
  EXPECT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

TEST(OptionsValidationTest, EngineCreateAcceptsValidOptions) {
  Result<Engine> engine = Engine::Create(SmallValid());
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->options().cluster.num_nodes, 2);
}

TEST(OptionsValidationTest, RunResultPassthroughsMirrorReport) {
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, 8);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(26, 6, 52), 8);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(6, 20, 53), 8);

  Result<Engine> engine = Engine::Create(SmallValid());
  ASSERT_TRUE(engine.ok());
  Engine::RunResult run = CompileAndExecute(*engine, q.dag, inputs);
  EXPECT_EQ(run.ok(), run.report.ok());
  EXPECT_EQ(run.status().code(), run.report.status.code());
  EXPECT_EQ(run.Summary(), run.report.Summary());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run.report.plan_description.empty());
}

TEST(OptionsValidationTest, PlanDescriptionPopulatedOnBothPaths) {
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  EngineOptions options;
  options.analytic = true;
  const Engine engine = MakeEngine(options);

  // Compile: the planner's own description.
  auto planned = CompileAndExecute(engine, q.dag, {});
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_FALSE(planned.report.plan_description.empty());

  // CompileWithPlans with a caller-assembled set and no description: the
  // engine synthesizes one instead of leaving the field empty.
  FusionPlanSet set = engine.MakePlans(q.dag);
  set.description.clear();
  auto supplied = CompileAndExecute(engine, q.dag, set, {});
  ASSERT_TRUE(supplied.ok()) << supplied.status();
  EXPECT_NE(supplied.report.plan_description.find("caller-supplied"),
            std::string::npos);
}

}  // namespace
}  // namespace fuseme
