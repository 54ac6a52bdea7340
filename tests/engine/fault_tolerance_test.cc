// Fault-tolerant execution (DESIGN.md section 13): under any seeded
// failure schedule the engine must produce bitwise-identical numeric
// results and stage statistics, report exact retry/degradation counters
// (replayable from the injector hash), recover formerly-O.O.M. workloads
// via the degradation ladder, model straggler speculation in cluster
// time, and trip the run deadline deterministically.

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.cluster.net_bandwidth = 1e6;
  options.cluster.compute_bandwidth = 1e8;
  return options;
}

struct GnmfFixture {
  GnmfQuery q;
  std::map<NodeId, BlockedMatrix> inputs;

  GnmfFixture() : q(BuildGnmf(26, 20, 6, /*x_nnz=*/104)) {
    SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(RandomDense(26, 6, 52), kBs);
    inputs[q.U] = BlockedMatrix::FromDense(RandomDense(6, 20, 53), kBs);
  }
};

/// Replays the injector schedule for one stage: how many retries its
/// `items` work items need, asserting no item exhausts `max_attempts`.
std::int64_t ExpectedRetries(const FaultInjector& injector, int stage,
                             std::int64_t items, int max_attempts) {
  std::int64_t retries = 0;
  for (std::int64_t item = 0; item < items; ++item) {
    int attempt = 0;
    while (attempt + 1 < max_attempts &&
           injector.TaskFault(stage, item, attempt) != InjectedFault::kNone) {
      ++attempt;
    }
    EXPECT_EQ(injector.TaskFault(stage, item, attempt), InjectedFault::kNone)
        << "schedule exhausts item " << item << " of stage " << stage
        << "; pick a different seed or raise max_attempts";
    retries += attempt;
  }
  return retries;
}

TEST(FaultToleranceTest, CleanRunsReportNoRecovery) {
  GnmfFixture f;
  Engine engine = MakeEngine(Options(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run.report.attempts, 0);  // first tries are counted
  EXPECT_EQ(run.report.total_retries(), 0);
  EXPECT_TRUE(run.report.degradations.empty());
  EXPECT_EQ(run.report.speculative_tasks, 0);
  EXPECT_EQ(run.Summary().find("retr"), std::string::npos);
}

TEST(FaultToleranceTest, FailureScheduleSweepIsBitwiseIdentical) {
  GnmfFixture f;
  Engine clean_engine = MakeEngine(Options(SystemMode::kFuseMe));
  auto clean = CompileAndExecute(clean_engine, f.q.dag, f.inputs);
  ASSERT_TRUE(clean.ok()) << clean.status();

  constexpr int kMaxAttempts = 8;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    for (double p : {0.05, 0.2}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " p=" + std::to_string(p));
      EngineOptions options = Options(SystemMode::kFuseMe);
      options.faults.seed = seed;
      options.faults.task_failure_probability = p;
      options.recovery.retry.max_attempts = kMaxAttempts;
      Result<Engine> engine = Engine::Create(options);
      ASSERT_TRUE(engine.ok()) << engine.status();
      auto faulted = CompileAndExecute(*engine, f.q.dag, f.inputs);
      ASSERT_TRUE(faulted.ok()) << faulted.status();

      // Numeric results are bitwise identical to the clean run's.
      ASSERT_EQ(faulted.outputs.size(), clean.outputs.size());
      for (const auto& [id, matrix] : clean.outputs) {
        EXPECT_EQ(DenseMatrix::MaxAbsDiff(
                      faulted.outputs.at(id).blocks().ToDense(),
                      matrix.blocks().ToDense()),
                  0.0);
      }

      // Stage statistics match except modeled elapsed time (which grows
      // by backoff and re-launch overhead).
      ASSERT_EQ(faulted.report.stages.size(), clean.report.stages.size());
      for (std::size_t i = 0; i < clean.report.stages.size(); ++i) {
        const StageStats& a = clean.report.stages[i];
        const StageStats& b = faulted.report.stages[i];
        EXPECT_EQ(a.num_tasks, b.num_tasks);
        EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
        EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
        EXPECT_EQ(a.flops, b.flops);
        EXPECT_EQ(a.max_task_memory, b.max_task_memory);
        EXPECT_GE(b.elapsed_seconds, a.elapsed_seconds);
      }

      // Retry accounting is exact: replay the schedule over the per-stage
      // work-item counts the clean run established.
      const FaultInjector injector(options.faults);
      std::int64_t expected_retries = 0;
      ASSERT_EQ(faulted.report.telemetry.size(),
                clean.report.telemetry.size());
      for (std::size_t i = 0; i < clean.report.telemetry.size(); ++i) {
        const std::int64_t items =
            clean.report.telemetry[i].recovery.attempts;
        const std::int64_t stage_retries = ExpectedRetries(
            injector, static_cast<int>(i), items, kMaxAttempts);
        EXPECT_EQ(faulted.report.telemetry[i].recovery.retries,
                  stage_retries);
        EXPECT_EQ(faulted.report.telemetry[i].recovery.injected_failures,
                  stage_retries);
        expected_retries += stage_retries;
      }
      EXPECT_EQ(faulted.report.total_retries(), expected_retries);
      EXPECT_EQ(faulted.report.attempts,
                clean.report.attempts + expected_retries);
      if (expected_retries > 0) {
        EXPECT_GT(faulted.report.elapsed_seconds,
                  clean.report.elapsed_seconds);
        EXPECT_NE(faulted.Summary().find("retr"), std::string::npos);
      }
    }
  }
}

TEST(FaultToleranceTest, ExhaustedAttemptBudgetFailsTheRun) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 3;
  options.faults.task_failure_probability = 1.0;  // every attempt dies
  options.recovery.retry.max_attempts = 2;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("attempt budget"),
            std::string::npos);
  ASSERT_FALSE(run.report.telemetry.empty());
  EXPECT_GT(run.report.telemetry.front().recovery.exhausted_items, 0);
  EXPECT_TRUE(run.outputs.empty());
}

TEST(FaultToleranceTest, OomDegradationCompletesRealWorkload) {
  // Fig. 12 methodology: one full-query plan forced onto each operator.
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 10, /*seed=*/72, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 10, /*seed=*/73, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
  auto expected = ReferenceEval(q.dag, q.mul,
                                {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
  ASSERT_TRUE(expected.ok());
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  // Find a budget the broadcast operator exceeds but the cuboid operator
  // (measured peak and modeled MemEst alike) fits with room to spare.
  Engine roomy = MakeEngine(Options(SystemMode::kFuseMe));
  auto bfo_probe =
      CompileAndExecute(roomy, q.dag, full, inputs, OperatorKind::kBfo);
  auto cfo_probe =
      CompileAndExecute(roomy, q.dag, full, inputs, OperatorKind::kCfo);
  ASSERT_TRUE(bfo_probe.ok()) << bfo_probe.status();
  ASSERT_TRUE(cfo_probe.ok()) << cfo_probe.status();
  auto cfo_pred = roomy.PredictStage(full.plans.front(), OperatorKind::kCfo);
  ASSERT_TRUE(cfo_pred.ok());
  const std::int64_t cfo_needs =
      std::max(cfo_probe.report.max_task_memory,
               static_cast<std::int64_t>(cfo_pred->mem_per_task));
  ASSERT_LT(cfo_needs, bfo_probe.report.max_task_memory)
      << "workload geometry no longer separates BFO from CFO footprints";
  const std::int64_t budget =
      (cfo_needs + bfo_probe.report.max_task_memory) / 2;

  // Without recovery the squeezed budget is a terminal O.O.M. cell.
  EngineOptions squeezed = Options(SystemMode::kFuseMe);
  squeezed.cluster.task_memory_budget = budget;
  Engine strict = MakeEngine(squeezed);
  auto failed =
      CompileAndExecute(strict, q.dag, full, inputs, OperatorKind::kBfo);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();

  // With the ladder enabled the same forced-BFO cell completes — and the
  // numbers still match the single-node reference.
  squeezed.recovery.degrade_on_oom = true;
  Engine degrading = MakeEngine(squeezed);
  auto recovered =
      CompileAndExecute(degrading, q.dag, full, inputs, OperatorKind::kBfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                recovered.outputs.at(q.mul).blocks().ToDense(), *expected),
            1e-9);
  EXPECT_NE(recovered.Summary().find("degradation"), std::string::npos);
}

TEST(FaultToleranceTest, OomDegradationCompletesPaperScaleBfo) {
  // engine_analytic_test's BfoOomsWhenSidesLarge cell: broadcasting ~24 GB
  // of sides exceeds the 10 GB task budget.  The ladder re-partitions and
  // the formerly-O.O.M. cell completes.
  NmfPattern q =
      BuildNmfPattern(750000, 750000, 2000, /*x_nnz=*/562500000);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  EngineOptions options;
  options.analytic = true;
  Engine strict = MakeEngine(options);
  auto failed = CompileAndExecute(strict, q.dag, full, {}, OperatorKind::kBfo);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();

  options.recovery.degrade_on_oom = true;
  Engine degrading = MakeEngine(options);
  auto recovered =
      CompileAndExecute(degrading, q.dag, full, {}, OperatorKind::kBfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
}

TEST(FaultToleranceTest, InjectedOomConsumedOnceAndDegraded) {
  // Force the whole query onto a broadcast operator so the targeted stage
  // always has a degradation rung (BFO -> CFO), then inject an OOM there.
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
  inputs[q.U] = BlockedMatrix::FromDense(RandomDense(26, 10, 72, 0.5, 1.5), kBs);
  inputs[q.V] = BlockedMatrix::FromDense(RandomDense(22, 10, 73, 0.5, 1.5), kBs);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 5;
  options.faults.oom_stages = {0};

  // Without the ladder, the injected OOM is terminal — the paper's cell.
  Engine strict = MakeEngine(options);
  auto failed =
      CompileAndExecute(strict, q.dag, full, inputs, OperatorKind::kBfo);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos);

  // With it, the stage re-runs degraded and the run completes; the
  // injection fires only on the stage's first attempt.
  options.recovery.degrade_on_oom = true;
  Engine degrading = MakeEngine(options);
  auto recovered =
      CompileAndExecute(degrading, q.dag, full, inputs, OperatorKind::kBfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.telemetry.empty());
  EXPECT_EQ(recovered.report.telemetry.front().recovery.injected_oom, 1);
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
  EXPECT_NE(recovered.report.degradations.front().cause.find("injected"),
            std::string::npos);
}

TEST(FaultToleranceTest, StragglersExtendElapsedAndSpeculationCuts) {
  GnmfFixture f;
  EngineOptions base = Options(SystemMode::kFuseMe);
  // Zero launch overhead makes the speculative copy strictly cheaper than
  // riding out a 100x straggler, so speculation must win every time.
  base.cluster.task_launch_overhead = 0.0;
  Engine clean_engine = MakeEngine(base);
  auto clean = CompileAndExecute(clean_engine, f.q.dag, f.inputs);
  ASSERT_TRUE(clean.ok()) << clean.status();

  EngineOptions straggling = base;
  straggling.faults.seed = 13;
  straggling.faults.straggler_probability = 0.5;
  straggling.faults.straggler_slowdown = 100.0;

  EngineOptions no_speculation = straggling;
  no_speculation.recovery.speculative_execution = false;

  auto speculated =
      CompileAndExecute(MakeEngine(straggling), f.q.dag, f.inputs);
  auto rode_out =
      CompileAndExecute(MakeEngine(no_speculation), f.q.dag, f.inputs);
  ASSERT_TRUE(speculated.ok()) << speculated.status();
  ASSERT_TRUE(rode_out.ok()) << rode_out.status();

  EXPECT_GT(speculated.report.speculative_tasks, 0);
  EXPECT_EQ(rode_out.report.speculative_tasks, 0);
  EXPECT_GT(speculated.report.elapsed_seconds,
            clean.report.elapsed_seconds);
  EXPECT_GT(rode_out.report.elapsed_seconds,
            speculated.report.elapsed_seconds);

  // Stragglers slow the modeled clock, never the numbers.
  for (const auto& [id, matrix] : clean.outputs) {
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(
                  speculated.outputs.at(id).blocks().ToDense(),
                  matrix.blocks().ToDense()),
              0.0);
  }
}

TEST(FaultToleranceTest, BackoffTripsTheRunDeadlineDeterministically) {
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 1;
  options.faults.task_failure_probability = 0.5;
  options.recovery.retry.max_attempts = 8;
  // Each retry backs off for hours of modeled time; the 12-hour default
  // horizon would survive, a tight one cannot.
  options.recovery.retry.backoff_base_seconds = 3600.0;
  options.recovery.retry.backoff_max_seconds = 3600.0;
  options.cluster.timeout_seconds = 1800.0;
  Engine engine = MakeEngine(options);
  auto first = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(first.status().IsTimedOut()) << first.status();
  EXPECT_NE(first.Summary().find("T.O."), std::string::npos);
  // Deterministic: the same schedule trips at the same point every run.
  auto second = CompileAndExecute(engine, f.q.dag, f.inputs);
  EXPECT_TRUE(second.status().IsTimedOut());
  EXPECT_EQ(first.report.elapsed_seconds, second.report.elapsed_seconds);
  EXPECT_EQ(first.report.total_retries(), second.report.total_retries());
}

TEST(FaultToleranceTest, TracerRecordsFaultSpans) {
  GnmfFixture f;
  Tracer tracer;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 7;
  options.faults.task_failure_probability = 0.2;
  options.recovery.retry.max_attempts = 8;
  options.tracer = &tracer;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(run.report.total_retries(), 0);

  std::int64_t fault_spans = 0;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.category == "fault") ++fault_spans;
  }
  EXPECT_EQ(fault_spans, run.report.total_retries());
}

TEST(FaultToleranceTest, MetricsCountRecovery) {
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.faults.seed = 7;
  options.faults.task_failure_probability = 0.2;
  options.recovery.retry.max_attempts = 8;
  options.metrics = &metrics;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GT(run.report.total_retries(), 0);

  EXPECT_EQ(metrics.GetCounter(metric_names::kWorkItemAttempts)->value(),
            run.report.attempts);
  EXPECT_EQ(metrics
                .GetCounter(metric_names::kTaskRetries,
                            {{"cause", "injected_failure"}})
                ->value(),
            run.report.total_retries());
  const std::int64_t injected =
      metrics
          .GetCounter(metric_names::kFaultInjected,
                      {{"kind", "lost_at_launch"}})
          ->value() +
      metrics
          .GetCounter(metric_names::kFaultInjected,
                      {{"kind", "lost_before_commit"}})
          ->value();
  EXPECT_EQ(injected, run.report.total_retries());
}

}  // namespace
}  // namespace fuseme
