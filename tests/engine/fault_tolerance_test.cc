// The OOM degradation ladder (DESIGN.md section 13), the engine's one
// recovery path: a stage that runs out of memory re-runs as BFO/RFO → CFO
// → tighter cuboid → cpmm when EngineOptions::recovery.degrade_on_oom is
// set.  Formerly-O.O.M. cells must complete with the single-node answer;
// the ladder's trace, outputs, StageStats and modeled seconds must not
// depend on the thread count; each rung costs one modeled launch
// overhead; and when no rung is left the original OutOfMemory surfaces
// unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
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

/// Fig. 12 methodology: the fused X*log(U x V^T + eps) plan as one stage,
/// forced onto a chosen operator, with its single-node answer.
struct NmfCell {
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  SparseMatrix x = RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0);
  DenseMatrix u = RandomDense(26, 10, /*seed=*/72, 0.5, 1.5);
  DenseMatrix v = RandomDense(22, 10, /*seed=*/73, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  FusionPlanSet full;

  NmfCell() {
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
    full.plans.emplace_back(
        &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }

  DenseMatrix Expected() const {
    Result<DenseMatrix> expected = ReferenceEval(
        q.dag, q.mul, {{q.X, x.ToDense()}, {q.U, u}, {q.V, v}});
    FUSEME_CHECK(expected.ok()) << expected.status().ToString();
    return *std::move(expected);
  }

  Engine::RunResult Run(const EngineOptions& options,
                        OperatorKind kind) const {
    return CompileAndExecute(MakeEngine(options), q.dag, full, inputs, kind);
  }

  /// A per-task budget BFO exceeds but the cuboid operator (measured peak
  /// and modeled MemEst alike) fits with room to spare, halfway between
  /// the two.
  std::int64_t SqueezedBudget() const {
    const EngineOptions roomy_options = Options(SystemMode::kFuseMe);
    const Engine roomy = MakeEngine(roomy_options);
    const Engine::RunResult probe = Run(roomy_options, OperatorKind::kBfo);
    const Engine::RunResult cfo = Run(roomy_options, OperatorKind::kCfo);
    EXPECT_TRUE(probe.ok()) << probe.status();
    EXPECT_TRUE(cfo.ok()) << cfo.status();
    Result<StagePrediction> cfo_pred =
        roomy.PredictStage(full.plans.front(), OperatorKind::kCfo);
    EXPECT_TRUE(cfo_pred.ok()) << cfo_pred.status();
    const std::int64_t cfo_needs =
        std::max(cfo.report.max_task_memory,
                 cfo_pred.ok()
                     ? static_cast<std::int64_t>(cfo_pred->mem_per_task)
                     : 0);
    EXPECT_LT(cfo_needs, probe.report.max_task_memory)
        << "workload geometry no longer separates BFO from CFO footprints";
    return (cfo_needs + probe.report.max_task_memory) / 2;
  }

  /// Options with the squeezed budget, ladder on or off.
  EngineOptions Squeezed(bool degrade) const {
    EngineOptions options = Options(SystemMode::kFuseMe);
    options.cluster.task_memory_budget = SqueezedBudget();
    options.recovery.degrade_on_oom = degrade;
    return options;
  }

  /// A budget below the measured peak of the CFO cuboid the optimizer
  /// first picks, with the ladder on: forced BFO degrades to that CFO,
  /// which overruns at run time, and the ladder then shrinks the cuboid
  /// rung by rung until one fits.
  static EngineOptions Tight() {
    EngineOptions options = Options(SystemMode::kFuseMe);
    options.cluster.task_memory_budget = 3000;
    options.recovery.degrade_on_oom = true;
    return options;
  }
};

void ExpectSameStageStats(const StageStats& a, const StageStats& b) {
  EXPECT_EQ(a.num_tasks, b.num_tasks);
  EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
  EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.max_task_memory, b.max_task_memory);
}

void ExpectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(double) * static_cast<std::size_t>(
                                             a.rows() * a.cols())),
            0)
      << "outputs differ bitwise";
}

TEST(FaultToleranceTest, CleanRunsReportNoRecovery) {
  GnmfFixture f;
  Engine engine = MakeEngine(Options(SystemMode::kFuseMe));
  auto run = CompileAndExecute(engine, f.q.dag, f.inputs);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run.report.degradations.empty());
  for (const StageTelemetry& t : run.report.telemetry) {
    EXPECT_EQ(t.degradations, 0) << t.label;
  }
  EXPECT_EQ(run.Summary().find("degradation"), std::string::npos);
}

TEST(FaultToleranceTest, OomDegradationCompletesRealWorkload) {
  NmfCell cell;
  // Without recovery the squeezed budget is a terminal O.O.M. cell.
  auto failed = cell.Run(cell.Squeezed(false), OperatorKind::kBfo);
  ASSERT_TRUE(failed.status().IsOutOfMemory()) << failed.status();

  // With the ladder enabled the same forced-BFO cell completes — and the
  // numbers still match the single-node reference.
  auto recovered = cell.Run(cell.Squeezed(true), OperatorKind::kBfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  EXPECT_NE(recovered.report.degradations.front().from.find("BFO"),
            std::string::npos);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                recovered.outputs.at(cell.q.mul).blocks().ToDense(),
                cell.Expected()),
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

TEST(FaultToleranceTest, PaperScaleLadderChargesOneLaunchPerRung) {
  // Analytic twin of the rung arithmetic: the degraded cell's stage is
  // the directly forced CFO stage plus one task_launch_overhead per rung.
  NmfPattern q =
      BuildNmfPattern(750000, 750000, 2000, /*x_nnz=*/562500000);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  EngineOptions options;
  options.analytic = true;
  options.recovery.degrade_on_oom = true;
  Engine engine = MakeEngine(options);
  auto recovered =
      CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kBfo);
  auto direct = CompileAndExecute(engine, q.dag, full, {}, OperatorKind::kCfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(recovered.report.degradations.size(), 1u);
  EXPECT_EQ(recovered.report.degradations.front().to.rfind("CFO", 0), 0u);
  ASSERT_EQ(recovered.report.stages.size(), 1u);
  ASSERT_EQ(direct.report.stages.size(), 1u);
  ExpectSameStageStats(recovered.report.stages[0], direct.report.stages[0]);
  EXPECT_EQ(recovered.report.stages[0].elapsed_seconds,
            direct.report.stages[0].elapsed_seconds +
                options.cluster.task_launch_overhead);
  EXPECT_EQ(recovered.report.telemetry.front().degradations, 1);
}

TEST(FaultToleranceTest, DegradedStageMatchesTheDirectCfoRun) {
  // BFO → CFO is one rung at budget 1, so the stage that finally runs is
  // exactly the one a forced-CFO compile runs: same outputs bit for bit,
  // same StageStats, and one launch overhead more modeled time.
  NmfCell cell;
  const EngineOptions options = cell.Squeezed(true);
  auto recovered = cell.Run(options, OperatorKind::kBfo);
  auto direct = cell.Run(options, OperatorKind::kCfo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(recovered.report.degradations.size(), 1u);
  EXPECT_TRUE(direct.report.degradations.empty());
  ExpectBitwiseEqual(recovered.outputs.at(cell.q.mul).blocks().ToDense(),
                     direct.outputs.at(cell.q.mul).blocks().ToDense());
  ASSERT_EQ(recovered.report.stages.size(), 1u);
  ASSERT_EQ(direct.report.stages.size(), 1u);
  ExpectSameStageStats(recovered.report.stages[0], direct.report.stages[0]);
  EXPECT_EQ(recovered.report.stages[0].label, direct.report.stages[0].label);
  EXPECT_EQ(recovered.report.elapsed_seconds,
            direct.report.elapsed_seconds +
                options.cluster.task_launch_overhead);
}

TEST(FaultToleranceTest, ExhaustedLadderSurfacesTheOriginalOom) {
  // A budget no operator fits: the compiled BFO prediction fails, and no
  // CFO cuboid or cpmm split fits either, so the ladder has no rung to
  // take.  The run fails exactly as it would without recovery.
  NmfCell cell;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.cluster.task_memory_budget = 64;
  auto strict = cell.Run(options, OperatorKind::kBfo);
  options.recovery.degrade_on_oom = true;
  auto degrading = cell.Run(options, OperatorKind::kBfo);
  ASSERT_TRUE(strict.status().IsOutOfMemory()) << strict.status();
  ASSERT_TRUE(degrading.status().IsOutOfMemory()) << degrading.status();
  EXPECT_EQ(degrading.status().message(), strict.status().message());
  EXPECT_EQ(degrading.Summary(), strict.Summary());
  EXPECT_TRUE(degrading.report.degradations.empty());
  EXPECT_TRUE(degrading.outputs.empty());
}

TEST(FaultToleranceTest, LadderTriesBelowTheFailedCuboidBeforeGivingUp) {
  // At 2,500 B the ladder climbs BFO -> CFO -> a finer CFO cuboid that
  // still overruns (MemEst underestimates the measured peak); halving the
  // modeled budget again admits no cuboid at all.  A search just below
  // the failed cuboid's MemEst finds one that fits, so the cell completes
  // with the single-node answer instead of reporting O.O.M.
  NmfCell cell;
  EngineOptions options = Options(SystemMode::kFuseMe);
  options.cluster.task_memory_budget = 2500;
  options.recovery.degrade_on_oom = true;
  const Engine::RunResult run = cell.Run(options, OperatorKind::kBfo);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_GE(run.report.degradations.size(), 3u);
  EXPECT_EQ(run.report.degradations.back().to.rfind("CFO", 0), 0u);
  EXPECT_LE(run.report.max_task_memory, options.cluster.task_memory_budget);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                run.outputs.at(cell.q.mul).blocks().ToDense(),
                cell.Expected()),
            1e-9);
}

TEST(FaultToleranceTest, MetricsAndJournalCountDegradationRungs) {
  NmfCell cell;
  MetricsRegistry metrics;
  EngineOptions options = NmfCell::Tight();
  options.metrics = &metrics;
  options.observability.journal_capacity = 256;
  Engine engine = MakeEngine(options);
  auto run = CompileAndExecute(engine, cell.q.dag, cell.full, cell.inputs,
                               OperatorKind::kBfo);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::vector<DegradationEvent>& rungs = run.report.degradations;
  ASSERT_GE(rungs.size(), 2u) << "the tight cell no longer shrinks cuboids";

  // fuseme_stage_degradations_total{action} counts each rung under the
  // action that took it: a cpmm target is the "cpmm" rung, anything else
  // a cuboid re-plan.
  std::int64_t cpmm = 0;
  for (const DegradationEvent& e : rungs) {
    if (e.to.rfind("cpmm", 0) == 0) ++cpmm;
  }
  EXPECT_EQ(metrics
                .GetCounter(metric_names::kStageDegradations,
                            {{"action", "shrink_cuboid"}})
                ->value(),
            static_cast<std::int64_t>(rungs.size()) - cpmm);
  EXPECT_EQ(metrics
                .GetCounter(metric_names::kStageDegradations,
                            {{"action", "cpmm"}})
                ->value(),
            cpmm);

  // One kStageDegraded journal event per rung, in rung order, carrying
  // the same from/to/cause the report records.
  std::vector<JournalEvent> degraded;
  for (const JournalEvent& e : engine.journal()->Snapshot()) {
    if (e.id == event_names::kStageDegraded) degraded.push_back(e);
  }
  ASSERT_EQ(degraded.size(), rungs.size());
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    std::map<std::string, std::string> payload(degraded[i].payload.begin(),
                                               degraded[i].payload.end());
    EXPECT_EQ(payload["stage"], rungs[i].stage_label);
    EXPECT_EQ(payload["from"], rungs[i].from);
    EXPECT_EQ(payload["to"], rungs[i].to);
    EXPECT_EQ(payload["cause"], rungs[i].cause);
  }
  EXPECT_EQ(run.report.telemetry.front().degradations,
            static_cast<std::int64_t>(rungs.size()));
}

TEST(FaultToleranceTest, TracerStageSpanCarriesDegradations) {
  NmfCell cell;
  Tracer tracer;
  EngineOptions options = cell.Squeezed(true);
  options.tracer = &tracer;
  auto run = cell.Run(options, OperatorKind::kBfo);
  ASSERT_TRUE(run.ok()) << run.status();
  std::vector<std::string> degradation_args;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.category != "stage") continue;
    for (const auto& [key, value] : span.args) {
      if (key == "degradations") degradation_args.push_back(value);
    }
  }
  EXPECT_EQ(degradation_args,
            std::vector<std::string>{
                std::to_string(run.report.degradations.size())});

  // A stage that never degraded carries no such argument.
  Tracer clean_tracer;
  EngineOptions clean = Options(SystemMode::kFuseMe);
  clean.tracer = &clean_tracer;
  ASSERT_TRUE(cell.Run(clean, OperatorKind::kBfo).ok());
  for (const TraceSpan& span : clean_tracer.spans()) {
    for (const auto& arg : span.args) {
      EXPECT_NE(arg.first, "degradations") << span.name;
    }
  }
}

TEST(FaultToleranceTest, LadderRungsPassParanoidCuboidChecks) {
  // kParanoid re-verifies every CFO/cpmm cuboid before it runs, degraded
  // rungs included; the ladder's choices must satisfy the verifier and
  // leave the run exactly as the planner-level one.
  NmfCell cell;
  const EngineOptions planner = cell.Squeezed(true);
  EngineOptions paranoid = planner;
  paranoid.verify = VerifyLevel::kParanoid;
  auto checked = cell.Run(paranoid, OperatorKind::kBfo);
  auto base = cell.Run(planner, OperatorKind::kBfo);
  ASSERT_TRUE(checked.ok()) << checked.status();
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_TRUE(checked.report.verifier_diagnostics.empty());
  EXPECT_EQ(base.report.degradations, checked.report.degradations);
  EXPECT_EQ(base.report.elapsed_seconds, checked.report.elapsed_seconds);
}

TEST(FaultToleranceTest, RelaunchOverheadCountsTowardTheDeadline) {
  // The forced-CFO cell fits the horizon; the same stage reached through
  // one BFO → CFO rung pays a launch overhead more and times out.
  NmfCell cell;
  EngineOptions options = cell.Squeezed(true);
  options.cluster.task_launch_overhead = 100.0;
  const Engine::RunResult direct = cell.Run(options, OperatorKind::kCfo);
  ASSERT_TRUE(direct.ok()) << direct.status();
  options.cluster.timeout_seconds =
      direct.report.elapsed_seconds + options.cluster.task_launch_overhead / 2;
  ASSERT_TRUE(cell.Run(options, OperatorKind::kCfo).ok());
  const Engine::RunResult degraded = cell.Run(options, OperatorKind::kBfo);
  EXPECT_TRUE(degraded.status().IsTimedOut()) << degraded.status();
  EXPECT_EQ(degraded.report.degradations.size(), 1u);
  EXPECT_NE(degraded.Summary().find("T.O."), std::string::npos);
}

TEST(FaultToleranceTest, AutoSelectedBroadcastDegradesUnderSqueezedBudget) {
  // SystemDS picks BFO or RFO by its own §6.2 rule; under a budget only
  // the cuboid operator fits, the ladder rescues the auto-selected
  // operator too, and the answer matches the single-node reference.
  NmfCell cell;
  EngineOptions options = cell.Squeezed(false);
  options.system = SystemMode::kSystemDs;
  const Engine::RunResult strict = cell.Run(options, OperatorKind::kAuto);
  options.recovery.degrade_on_oom = true;
  const Engine::RunResult recovered = cell.Run(options, OperatorKind::kAuto);
  ASSERT_TRUE(strict.status().IsOutOfMemory()) << strict.status();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_FALSE(recovered.report.degradations.empty());
  const std::string& from = recovered.report.degradations.front().from;
  EXPECT_TRUE(from.rfind("BFO", 0) == 0 || from.rfind("RFO", 0) == 0)
      << from;
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                recovered.outputs.at(cell.q.mul).blocks().ToDense(),
                cell.Expected()),
            1e-9);
}

TEST(FaultToleranceTest, LadderTraceChainsRungToRung) {
  // Each rung starts from the configuration the previous one moved to,
  // the first from the forced BFO, all on the one fused plan; a stage
  // label names the plan and then, in brackets, the operator it ran as.
  // The stage the ladder settles on runs as the last rung's target and
  // fits the budget it ran under.
  NmfCell cell;
  const EngineOptions options = NmfCell::Tight();
  const Engine::RunResult run = cell.Run(options, OperatorKind::kBfo);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::vector<DegradationEvent>& rungs = run.report.degradations;
  ASSERT_GE(rungs.size(), 2u) << "the tight cell no longer shrinks cuboids";
  const auto operator_of = [](const std::string& config) {
    return config.substr(0, config.find(' '));
  };
  const std::string& first_label = rungs.front().stage_label;
  const std::string plan = first_label.substr(0, first_label.rfind(" ["));
  EXPECT_EQ(rungs.front().from.rfind("BFO", 0), 0u) << rungs.front().from;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    EXPECT_EQ(rungs[i].stage_label,
              plan + " [" + operator_of(rungs[i].from) + "]");
    EXPECT_NE(rungs[i].from, rungs[i].to);
    EXPECT_FALSE(rungs[i].cause.empty());
    if (i > 0) {
      EXPECT_EQ(rungs[i].from, rungs[i - 1].to) << "rung " << i;
    }
  }
  ASSERT_EQ(run.report.stages.size(), 1u);
  EXPECT_EQ(run.report.stages[0].label,
            plan + " [" + operator_of(rungs.back().to) + "]");
  EXPECT_LE(run.report.max_task_memory, options.cluster.task_memory_budget);
}

TEST(FaultToleranceTest, DegradationCauseIsTheOomItRecoveredFrom) {
  // The first rung records, as its cause, the very OutOfMemory message
  // the same cell fails with when the ladder is off.
  NmfCell cell;
  const Engine::RunResult strict = cell.Run(cell.Squeezed(false),
                                            OperatorKind::kBfo);
  const Engine::RunResult recovered = cell.Run(cell.Squeezed(true),
                                               OperatorKind::kBfo);
  ASSERT_TRUE(strict.status().IsOutOfMemory()) << strict.status();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(recovered.report.degradations.size(), 1u);
  EXPECT_EQ(recovered.report.degradations.front().cause,
            strict.status().message());
}

TEST(FaultToleranceTest, LadderIsInertWhenEveryStageFits) {
  // With room to spare, turning the ladder on changes nothing on a
  // multi-stage workload: same outputs bit for bit, same StageStats, same
  // modeled seconds and summary, and no rung taken.
  GnmfFixture f;
  EngineOptions options = Options(SystemMode::kFuseMe);
  const Engine::RunResult strict =
      CompileAndExecute(MakeEngine(options), f.q.dag, f.inputs);
  options.recovery.degrade_on_oom = true;
  const Engine::RunResult degrading =
      CompileAndExecute(MakeEngine(options), f.q.dag, f.inputs);
  ASSERT_TRUE(strict.ok()) << strict.status();
  ASSERT_TRUE(degrading.ok()) << degrading.status();
  EXPECT_TRUE(degrading.report.degradations.empty());
  ASSERT_GT(strict.report.stages.size(), 1u);
  ASSERT_EQ(strict.report.stages.size(), degrading.report.stages.size());
  for (std::size_t s = 0; s < strict.report.stages.size(); ++s) {
    EXPECT_EQ(strict.report.stages[s].label, degrading.report.stages[s].label);
    ExpectSameStageStats(strict.report.stages[s], degrading.report.stages[s]);
    EXPECT_EQ(strict.report.stages[s].elapsed_seconds,
              degrading.report.stages[s].elapsed_seconds);
  }
  EXPECT_EQ(strict.report.elapsed_seconds, degrading.report.elapsed_seconds);
  EXPECT_EQ(strict.Summary(), degrading.Summary());
  ASSERT_EQ(strict.outputs.size(), degrading.outputs.size());
  for (const auto& [id, out] : strict.outputs) {
    ExpectBitwiseEqual(out.blocks().ToDense(),
                       degrading.outputs.at(id).blocks().ToDense());
  }
}

TEST(FaultToleranceTest, RepeatedDegradedRunsOnOneEngineAgree) {
  // The ladder keeps no state across executions: running the same
  // degrading compiled cell twice on one engine takes the same rungs and
  // reports the same stages, modeled seconds and outputs.
  NmfCell cell;
  const Engine engine = MakeEngine(NmfCell::Tight());
  const Engine::RunResult first = CompileAndExecute(
      engine, cell.q.dag, cell.full, cell.inputs, OperatorKind::kBfo);
  const Engine::RunResult second = CompileAndExecute(
      engine, cell.q.dag, cell.full, cell.inputs, OperatorKind::kBfo);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_FALSE(first.report.degradations.empty());
  EXPECT_EQ(first.report.degradations, second.report.degradations);
  ASSERT_EQ(first.report.stages.size(), second.report.stages.size());
  for (std::size_t s = 0; s < first.report.stages.size(); ++s) {
    ExpectSameStageStats(first.report.stages[s], second.report.stages[s]);
  }
  EXPECT_EQ(first.report.elapsed_seconds, second.report.elapsed_seconds);
  ExpectBitwiseEqual(first.outputs.at(cell.q.mul).blocks().ToDense(),
                     second.outputs.at(cell.q.mul).blocks().ToDense());
}

/// The two ladder cells a thread sweep runs: one BFO → CFO rung, and
/// BFO → CFO followed by run-time overruns that shrink the cuboid.
enum class LadderCell { kOneRung, kShrinkRungs };

const char* LadderCellName(LadderCell cell) {
  return cell == LadderCell::kOneRung ? "OneRung" : "ShrinkRungs";
}

void PrintTo(LadderCell cell, std::ostream* os) { *os << LadderCellName(cell); }

/// Each ladder cell runs at every local thread count: the ladder's trace,
/// outputs, StageStats and modeled seconds must equal the serial run's
/// bit for bit.
class OomLadderThreadSweep
    : public ::testing::TestWithParam<std::tuple<LadderCell, int>> {
 protected:
  void SetUp() override {
    previous_ = GlobalParallelism();
    SetGlobalThreadPoolThreads(8);
  }
  void TearDown() override { SetGlobalThreadPoolThreads(previous_); }

 private:
  int previous_ = 1;
};

TEST_P(OomLadderThreadSweep, ForcedBfoCellIsThreadInvariant) {
  const auto [which, threads] = GetParam();
  NmfCell cell;
  EngineOptions options = which == LadderCell::kOneRung
                              ? cell.Squeezed(true)
                              : NmfCell::Tight();
  options.cluster.local_threads = 1;
  const Engine::RunResult serial = cell.Run(options, OperatorKind::kBfo);
  options.cluster.local_threads = threads;
  const Engine::RunResult run = cell.Run(options, OperatorKind::kBfo);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(run.ok()) << run.status();
  const std::size_t rungs = serial.report.degradations.size();
  if (which == LadderCell::kOneRung) {
    ASSERT_EQ(rungs, 1u);
  } else {
    ASSERT_GE(rungs, 2u) << "the tight cell no longer shrinks cuboids";
  }
  EXPECT_EQ(serial.report.degradations.front().from.rfind("BFO", 0), 0u);

  ExpectBitwiseEqual(serial.outputs.at(cell.q.mul).blocks().ToDense(),
                     run.outputs.at(cell.q.mul).blocks().ToDense());
  EXPECT_EQ(serial.report.degradations, run.report.degradations);
  ASSERT_EQ(serial.report.stages.size(), run.report.stages.size());
  for (std::size_t s = 0; s < serial.report.stages.size(); ++s) {
    EXPECT_EQ(serial.report.stages[s].label, run.report.stages[s].label);
    ExpectSameStageStats(serial.report.stages[s], run.report.stages[s]);
    EXPECT_EQ(serial.report.stages[s].elapsed_seconds,
              run.report.stages[s].elapsed_seconds);
  }
  EXPECT_EQ(serial.report.elapsed_seconds, run.report.elapsed_seconds);
  EXPECT_LE(DenseMatrix::MaxAbsDiff(
                run.outputs.at(cell.q.mul).blocks().ToDense(),
                cell.Expected()),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, OomLadderThreadSweep,
    ::testing::Combine(::testing::Values(LadderCell::kOneRung,
                                         LadderCell::kShrinkRungs),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<OomLadderThreadSweep::ParamType>&
           info) {
      return std::string(LadderCellName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

}  // namespace
}  // namespace fuseme
