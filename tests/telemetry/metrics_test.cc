#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "compile_execute.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metric_names.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

TEST(MetricsTest, CounterSemantics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("fuseme_test_events_total");
  EXPECT_EQ(c->value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.GetCounter("fuseme_test_events_total"), c);
}

TEST(MetricsTest, GaugeTracksHighWater) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("fuseme_test_level");
  g->Set(8.0);
  g->Set(3.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.0);
  EXPECT_DOUBLE_EQ(g->peak(), 8.0);
  g->Add(10.0);
  EXPECT_DOUBLE_EQ(g->value(), 13.0);
  EXPECT_DOUBLE_EQ(g->peak(), 13.0);
  g->Add(-13.0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_DOUBLE_EQ(g->peak(), 13.0);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  MetricsRegistry registry;
  Histogram* h =
      registry.GetHistogram("fuseme_test_seconds", {0.1, 1.0, 10.0});
  h->Observe(0.05);   // bucket 0
  h->Observe(0.1);    // bucket 0 (le is inclusive)
  h->Observe(0.5);    // bucket 1
  h->Observe(100.0);  // overflow
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 100.65);
  const std::vector<std::int64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 1);
}

TEST(MetricsTest, LabelFamiliesAreDistinctAndOrderCanonical) {
  MetricsRegistry registry;
  Counter* consolidation = registry.GetCounter(
      metric_names::kStageShuffleBytes, {{"cause", "consolidation"}});
  Counter* aggregation = registry.GetCounter(metric_names::kStageShuffleBytes,
                                             {{"cause", "aggregation"}});
  EXPECT_NE(consolidation, aggregation);
  consolidation->Add(100);
  aggregation->Add(23);

  // Label order does not matter: {a,b} and {b,a} are one instrument.
  Counter* ab =
      registry.GetCounter("fuseme_test_pair_total", {{"a", "1"}, {"b", "2"}});
  Counter* ba =
      registry.GetCounter("fuseme_test_pair_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterTotal(metric_names::kStageShuffleBytes), 123);
  const MetricSample* sample = snap.Find(metric_names::kStageShuffleBytes,
                                         {{"cause", "consolidation"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->counter_value, 100);
}

TEST(MetricsTest, SnapshotIsSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.GetCounter("fuseme_zz_total");
  registry.GetCounter("fuseme_aa_total");
  registry.GetCounter("fuseme_mm_total", {{"k", "b"}});
  registry.GetCounter("fuseme_mm_total", {{"k", "a"}});
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "fuseme_aa_total");
  EXPECT_EQ(snap.samples[1].name, "fuseme_mm_total");
  EXPECT_EQ(snap.samples[1].labels[0].second, "a");
  EXPECT_EQ(snap.samples[2].labels[0].second, "b");
  EXPECT_EQ(snap.samples[3].name, "fuseme_zz_total");
}

MetricsSnapshot PopulatedSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("fuseme_events_total")->Add(7);
  registry.GetCounter("fuseme_bytes_total", {{"cause", "shuffle"}})
      ->Add(1 << 20);
  Gauge* g = registry.GetGauge("fuseme_depth");
  g->Set(5.25);
  g->Set(2.5);
  Histogram* h =
      registry.GetHistogram("fuseme_wait_seconds", DefaultTimeBoundaries());
  h->Observe(1e-7);
  h->Observe(0.25);
  h->Observe(1e9);  // overflow bucket
  // A value that needs shortest-round-trip formatting to survive.
  registry.GetGauge("fuseme_ratio")->Set(0.1 + 0.2);
  return registry.Snapshot();
}

TEST(MetricsTest, JsonRoundTripsExactly) {
  const MetricsSnapshot snap = PopulatedSnapshot();
  Result<MetricsSnapshot> reparsed = ParseMetricsJson(snap.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(*reparsed == snap);
}

TEST(MetricsTest, JsonParserRejectsGarbage) {
  EXPECT_FALSE(ParseMetricsJson("not json").ok());
  EXPECT_FALSE(ParseMetricsJson("{\"samples\": [{}]}").ok());
}

TEST(MetricsTest, ConsistencyCheckCatchesViolations) {
  const MetricsSnapshot good = PopulatedSnapshot();
  EXPECT_TRUE(CheckMetricsConsistency(good).ok());

  MetricsSnapshot bad = good;
  for (MetricSample& s : bad.samples) {
    if (s.kind == MetricKind::kHistogram) s.histogram_count += 1;
  }
  EXPECT_FALSE(CheckMetricsConsistency(bad).ok());

  MetricsSnapshot negative = good;
  for (MetricSample& s : negative.samples) {
    if (s.kind == MetricKind::kCounter) s.counter_value = -1;
  }
  EXPECT_FALSE(CheckMetricsConsistency(negative).ok());
}

TEST(MetricsTest, ConcurrentHammerStaysConsistent) {
  // Many threads mutate the same families through the registry while
  // other threads take snapshots; totals must come out exact and every
  // snapshot (including intermediate ones) internally consistent.
  MetricsRegistry registry;
  constexpr std::int64_t kItems = 64;
  constexpr int kPerItem = 500;
  GlobalThreadPool()->ParallelFor(0, kItems, [&](std::int64_t i) {
    Counter* c = registry.GetCounter("fuseme_hammer_total");
    Counter* labeled = registry.GetCounter(
        "fuseme_hammer_labeled_total",
        {{"shard", std::to_string(i % 4)}});
    Gauge* g = registry.GetGauge("fuseme_hammer_depth");
    Histogram* h = registry.GetHistogram("fuseme_hammer_seconds",
                                         DefaultTimeBoundaries());
    for (int k = 0; k < kPerItem; ++k) {
      c->Increment();
      labeled->Add(2);
      g->Set(static_cast<double>(k % 17));
      h->Observe(static_cast<double>(k) * 1e-5);
      if (k % 100 == 0) {
        // Concurrent snapshot: only sanity-check it doesn't tear types.
        const MetricsSnapshot mid = registry.Snapshot();
        for (const MetricSample& s : mid.samples) {
          EXPECT_GE(s.counter_value, 0);
        }
      }
    }
  });
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(CheckMetricsConsistency(snap).ok())
      << CheckMetricsConsistency(snap).ToString();
  EXPECT_EQ(snap.CounterTotal("fuseme_hammer_total"), kItems * kPerItem);
  EXPECT_EQ(snap.CounterTotal("fuseme_hammer_labeled_total"),
            2 * kItems * kPerItem);
  const MetricSample* h = snap.Find("fuseme_hammer_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram_count, kItems * kPerItem);
  const MetricSample* g = snap.Find("fuseme_hammer_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge_peak, 16.0);
}

TEST(MetricsTest, AttachLogMetricsCountsByLevel) {
  MetricsRegistry registry;
  CaptureLogSink capture;  // swallow the test's own log lines
  LogSink* previous_sink = SetLogSink(&capture);
  const LogLevel previous_level = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  AttachLogMetrics(&registry);

  FUSEME_LOG(Info) << "counted";
  FUSEME_LOG(Warning) << "also counted";
  FUSEME_LOG(Warning) << "twice";

  AttachLogMetrics(nullptr);
  FUSEME_LOG(Error) << "not counted: hook detached";
  SetLogLevel(previous_level);
  SetLogSink(previous_sink);

  const MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* info =
      snap.Find(metric_names::kLogMessages, {{"level", "info"}});
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->counter_value, 1);
  const MetricSample* warning =
      snap.Find(metric_names::kLogMessages, {{"level", "warning"}});
  ASSERT_NE(warning, nullptr);
  EXPECT_EQ(warning->counter_value, 2);
  const MetricSample* error =
      snap.Find(metric_names::kLogMessages, {{"level", "error"}});
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->counter_value, 0);
}

// --- Engine integration ---------------------------------------------------

Engine MakeEngine(MetricsRegistry* metrics, bool analytic) {
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 16;
  options.analytic = analytic;
  options.metrics = metrics;
  return MakeEngine(options);
}

TEST(MetricsEngineTest, NullRegistryRunsUntouched) {
  // The nullable-pointer convention: a null registry must not be consulted
  // anywhere — the engine runs fully and a bystander registry stays empty.
  MetricsRegistry bystander;
  Engine engine = MakeEngine(nullptr, /*analytic=*/false);
  GnmfQuery q = BuildGnmf(64, 64, 16, 64 * 64 / 10);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = RandomSparseBlocked(64, 64, 0.1, 16, /*seed=*/1, 1.0, 5.0);
  inputs[q.U] = RandomDenseBlocked(16, 64, 16, /*seed=*/2, 0.5, 1.5);
  inputs[q.V] = RandomDenseBlocked(64, 16, 16, /*seed=*/3, 0.5, 1.5);
  Engine::RunResult run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status.ToString();
  EXPECT_TRUE(bystander.Snapshot().samples.empty());
}

TEST(MetricsEngineTest, RealRunPopulatesPipelineFamilies) {
  MetricsRegistry registry;
  Engine engine = MakeEngine(&registry, /*analytic=*/false);
  GnmfQuery q = BuildGnmf(64, 64, 16, 64 * 64 / 10);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = RandomSparseBlocked(64, 64, 0.1, 16, /*seed=*/1, 1.0, 5.0);
  inputs[q.U] = RandomDenseBlocked(16, 64, 16, /*seed=*/2, 0.5, 1.5);
  inputs[q.V] = RandomDenseBlocked(64, 16, 16, /*seed=*/3, 0.5, 1.5);
  Engine::RunResult run = CompileAndExecute(engine, q.dag, inputs);
  ASSERT_TRUE(run.report.ok()) << run.report.status.ToString();

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_TRUE(CheckMetricsConsistency(snap).ok())
      << CheckMetricsConsistency(snap).ToString();

  // Engine layer.
  EXPECT_EQ(snap.CounterTotal(metric_names::kEngineRuns), 1);
  const MetricSample* ok_runs =
      snap.Find(metric_names::kEngineRuns, {{"status", "ok"}});
  ASSERT_NE(ok_runs, nullptr);
  EXPECT_EQ(ok_runs->counter_value, 1);
  EXPECT_EQ(snap.CounterTotal(metric_names::kStages),
            static_cast<std::int64_t>(run.report.stages.size()));

  // Stage accounting mirrors the execution report exactly.
  const MetricSample* consolidation = snap.Find(
      metric_names::kStageShuffleBytes, {{"cause", "consolidation"}});
  ASSERT_NE(consolidation, nullptr);
  EXPECT_EQ(consolidation->counter_value, run.report.consolidation_bytes);
  const MetricSample* aggregation = snap.Find(
      metric_names::kStageShuffleBytes, {{"cause", "aggregation"}});
  ASSERT_NE(aggregation, nullptr);
  EXPECT_EQ(aggregation->counter_value, run.report.aggregation_bytes);
  EXPECT_EQ(snap.CounterTotal(metric_names::kStageFlops), run.report.flops);
  const MetricSample* task_mem = snap.Find(metric_names::kTaskMemoryBytes);
  ASSERT_NE(task_mem, nullptr);
  EXPECT_GE(task_mem->gauge_peak,
            static_cast<double>(run.report.max_task_memory));

  // Planner and optimizer layers.
  EXPECT_GT(snap.CounterTotal(metric_names::kPlannerExplorationCandidates),
            0);
  EXPECT_GE(snap.CounterTotal(metric_names::kPlannerPlans),
            static_cast<std::int64_t>(run.report.stages.size()));
  EXPECT_GT(snap.CounterTotal(metric_names::kOptimizerSearches), 0);
  EXPECT_GT(snap.CounterTotal(metric_names::kOptimizerEvaluations), 0);
  const MetricSample* plan_wall = snap.Find(metric_names::kPlannerWallSeconds);
  ASSERT_NE(plan_wall, nullptr);
  EXPECT_EQ(plan_wall->histogram_count, 1);

  // Verifier layer (default VerifyLevel::kPlanner checks run).
  EXPECT_GT(snap.CounterTotal(metric_names::kVerifierChecks), 0);
  EXPECT_EQ(snap.CounterTotal(metric_names::kVerifierDiagnostics), 0);

  // Runtime + kernel layers (real mode only).
  EXPECT_GT(snap.CounterTotal(metric_names::kWorkItems), 0);
  const MetricSample* item_seconds =
      snap.Find(metric_names::kWorkItemSeconds);
  ASSERT_NE(item_seconds, nullptr);
  EXPECT_EQ(item_seconds->histogram_count,
            snap.CounterTotal(metric_names::kWorkItems));
  EXPECT_GT(snap.CounterTotal(metric_names::kKernelFlops), 0);
  EXPECT_GT(snap.CounterTotal(metric_names::kKernelGemmFlops), 0);
  EXPECT_LE(snap.CounterTotal(metric_names::kKernelGemmFlops),
            snap.CounterTotal(metric_names::kKernelFlops));
  EXPECT_GT(snap.CounterTotal(metric_names::kKernelOutputCells), 0);
  EXPECT_LE(snap.CounterTotal(metric_names::kKernelOutputNnz),
            snap.CounterTotal(metric_names::kKernelOutputCells));
}

/// The sparse-kernel counters (fuseme_kernel_sparse_*,
/// fuseme_kernel_sddmm_dots_total) of `snap`, keyed by name and labels.
std::map<std::string, std::int64_t> SparseKernelCounters(
    const MetricsSnapshot& snap) {
  std::map<std::string, std::int64_t> out;
  for (const MetricSample& sample : snap.samples) {
    if (sample.name == metric_names::kKernelSparseCalls ||
        sample.name == metric_names::kKernelSparseFlops ||
        sample.name == metric_names::kKernelSddmmDots ||
        sample.name == metric_names::kKernelSparseParallel) {
      std::string key = sample.name;
      for (const auto& [label, value] : sample.labels) {
        key += " " + label + "=" + value;
      }
      out[key] = sample.counter_value;
    }
  }
  return out;
}

TEST(MetricsEngineTest, ConcurrentEnginesCountOnlyTheirOwnKernels) {
  // Two engines with their own registries run GNMF at the same time on
  // two threads: each registry's sparse-kernel families must hold exactly
  // its own engine's work, i.e. what a solo run of the same runs records.
  constexpr int kRuns = 20;
  GnmfQuery q = BuildGnmf(64, 64, 16, 64 * 64 / 10);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = RandomSparseBlocked(64, 64, 0.1, 16, /*seed=*/1, 1.0, 5.0);
  inputs[q.U] = RandomDenseBlocked(16, 64, 16, /*seed=*/2, 0.5, 1.5);
  inputs[q.V] = RandomDenseBlocked(64, 16, 16, /*seed=*/3, 0.5, 1.5);
  auto run_all = [&](MetricsRegistry* registry) {
    const Engine engine = MakeEngine(registry, /*analytic=*/false);
    Result<CompiledPlan> plan = engine.Compile(q.dag);
    ASSERT_TRUE(plan.ok()) << plan.status();
    for (int i = 0; i < kRuns; ++i) {
      const Engine::RunResult run = engine.Execute(*plan, inputs);
      ASSERT_TRUE(run.ok()) << run.status();
    }
  };

  MetricsRegistry solo;
  run_all(&solo);
  const std::map<std::string, std::int64_t> expected =
      SparseKernelCounters(solo.Snapshot());
  ASSERT_GT(solo.Snapshot().CounterTotal(metric_names::kKernelSparseCalls), 0)
      << "the workload no longer reaches the sparse kernels";

  MetricsRegistry left, right;
  std::thread left_thread([&] { run_all(&left); });
  std::thread right_thread([&] { run_all(&right); });
  left_thread.join();
  right_thread.join();
  EXPECT_EQ(SparseKernelCounters(left.Snapshot()), expected);
  EXPECT_EQ(SparseKernelCounters(right.Snapshot()), expected);
}

TEST(MetricsEngineTest, VerificationFailureCountsAsAnErrorRun) {
  // An Execute that stops at plan verification is still one run: the
  // runs counter and the journal's run-finish event both record it.
  GnmfQuery q = BuildGnmf(4000, 1800, 200, /*x_nnz=*/400000);
  MetricsRegistry registry;
  EngineOptions options;
  options.analytic = true;
  options.metrics = &registry;
  options.observability.journal_capacity = 64;
  const Engine engine = MakeEngine(options);
  const FusionPlanSet plans = engine.MakePlans(q.dag);
  // Corrupt the inferred shape of the U-side main matmul after planning.
  q.dag.mutable_node_for_test(q.a1)->rows = 12345;
  const Engine::RunResult run = CompileAndExecute(engine, q.dag, plans, {});
  ASSERT_EQ(run.report.status.code(), StatusCode::kInternal)
      << run.report.status.ToString();
  ASSERT_FALSE(run.report.verifier_diagnostics.empty());

  const MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* errors =
      snap.Find(metric_names::kEngineRuns, {{"status", "error"}});
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->counter_value, 1);
  EXPECT_EQ(snap.CounterTotal(metric_names::kEngineRuns), 1);
  int finishes = 0;
  for (const JournalEvent& e : engine.journal()->Snapshot()) {
    if (e.id == event_names::kRunFinish) ++finishes;
  }
  EXPECT_EQ(finishes, 1);
}

TEST(MetricsEngineTest, WorkloadSweepKeepsRegistryConsistent) {
  // One shared registry across the whole workload suite (analytic mode so
  // paper-scale shapes stay fast): after every run the registry must hold
  // its structural invariants and counters must be monotone.
  MetricsRegistry registry;
  Engine engine = MakeEngine(&registry, /*analytic=*/true);
  std::vector<Dag> dags;
  dags.push_back(BuildGnmf(2000, 2000, 100, 2000 * 200).dag);
  dags.push_back(BuildNmfPattern(2000, 2000, 100, 2000 * 200).dag);
  dags.push_back(BuildAlsLoss(2000, 2000, 100, 2000 * 200).dag);
  dags.push_back(BuildKlLoss(2000, 2000, 100, 2000 * 200).dag);
  dags.push_back(BuildPcaPattern(2000, 2000).dag);

  std::int64_t last_runs = 0, last_stages = 0;
  int completed = 0;
  for (const Dag& dag : dags) {
    Engine::RunResult run = CompileAndExecute(engine, dag, {});
    ASSERT_TRUE(run.report.ok()) << run.report.status.ToString();
    ++completed;
    const MetricsSnapshot snap = registry.Snapshot();
    ASSERT_TRUE(CheckMetricsConsistency(snap).ok())
        << CheckMetricsConsistency(snap).ToString();
    const std::int64_t runs = snap.CounterTotal(metric_names::kEngineRuns);
    const std::int64_t stages = snap.CounterTotal(metric_names::kStages);
    EXPECT_EQ(runs, completed);
    EXPECT_GT(stages, last_stages);
    EXPECT_GT(runs, last_runs);
    last_runs = runs;
    last_stages = stages;
  }
}

}  // namespace
}  // namespace fuseme
