// CompiledPlan (DESIGN.md section 18): compile-once/execute-many replays
// must be bitwise identical to the legacy single-shot Run across dense,
// sparse, and fault-injected schedules; the JSON artifact round-trips;
// and CheckCompatible rejects mismatched shapes, block sizes, sparsity
// classes, and clusters with precise messages before any stage runs.

#include "engine/compiled_plan.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/solver_names.h"
#include "engine/solver_registry.h"
#include "fusion/partial_plan.h"
#include "matrix/generators.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(SystemMode mode = SystemMode::kFuseMe) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  return options;
}

/// Bitwise comparison: outputs, per-stage accounting, and the recovery
/// trace — the same bar the determinism suites hold parallel runs to.
void ExpectIdenticalRuns(const Engine::RunResult& base,
                         const Engine::RunResult& other) {
  ASSERT_TRUE(base.report.ok()) << base.report.status;
  ASSERT_TRUE(other.report.ok()) << other.report.status;

  ASSERT_EQ(base.outputs.size(), other.outputs.size());
  for (const auto& [id, dm] : base.outputs) {
    auto it = other.outputs.find(id);
    ASSERT_NE(it, other.outputs.end());
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(),
                                      it->second.blocks().ToDense()),
              0.0)
        << "output v" << id;
  }

  const ExecutionReport& a = base.report;
  const ExecutionReport& b = other.report;
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    SCOPED_TRACE("stage " + a.stages[s].label);
    EXPECT_EQ(a.stages[s].label, b.stages[s].label);
    EXPECT_EQ(a.stages[s].num_tasks, b.stages[s].num_tasks);
    EXPECT_EQ(a.stages[s].consolidation_bytes,
              b.stages[s].consolidation_bytes);
    EXPECT_EQ(a.stages[s].aggregation_bytes, b.stages[s].aggregation_bytes);
    EXPECT_EQ(a.stages[s].flops, b.stages[s].flops);
    EXPECT_EQ(a.stages[s].max_task_memory, b.stages[s].max_task_memory);
    EXPECT_EQ(a.stages[s].elapsed_seconds, b.stages[s].elapsed_seconds);
  }
  EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
  EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.max_task_memory, b.max_task_memory);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);

  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t s = 0; s < a.telemetry.size(); ++s) {
    SCOPED_TRACE("telemetry " + a.telemetry[s].label);
    EXPECT_EQ(a.telemetry[s].recovery.attempts,
              b.telemetry[s].recovery.attempts);
    EXPECT_EQ(a.telemetry[s].recovery.retries,
              b.telemetry[s].recovery.retries);
    EXPECT_EQ(a.telemetry[s].recovery.injected_failures,
              b.telemetry[s].recovery.injected_failures);
    EXPECT_EQ(a.telemetry[s].recovery.exhausted_items,
              b.telemetry[s].recovery.exhausted_items);
  }
}

struct GnmfFixture {
  GnmfQuery q;
  std::map<NodeId, BlockedMatrix> inputs;

  GnmfFixture() : q(BuildGnmf(26, 20, 6, /*x_nnz=*/104)) {
    SparseMatrix x = RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0);
    DenseMatrix v = RandomDense(26, 6, /*seed=*/52, 0.5, 1.5);
    DenseMatrix u = RandomDense(6, 20, /*seed=*/53, 0.5, 1.5);
    inputs[q.X] = BlockedMatrix::FromSparse(x, kBs);
    inputs[q.V] = BlockedMatrix::FromDense(v, kBs);
    inputs[q.U] = BlockedMatrix::FromDense(u, kBs);
  }
};

/// Dense workload: a fully dense mask makes Compile record the base CFO
/// solver instead of the sparse refinements.
struct DenseNmfFixture {
  NmfPattern q;
  std::map<NodeId, BlockedMatrix> inputs;

  DenseNmfFixture() : q(BuildNmfPattern(40, 36, 24, /*x_nnz=*/40 * 36)) {
    inputs[q.X] =
        BlockedMatrix::FromDense(RandomDense(40, 36, /*seed=*/71, 1.0, 5.0),
                                 kBs);
    inputs[q.U] =
        BlockedMatrix::FromDense(RandomDense(40, 24, /*seed=*/72, 0.5, 1.5),
                                 kBs);
    inputs[q.V] =
        BlockedMatrix::FromDense(RandomDense(36, 24, /*seed=*/73, 0.5, 1.5),
                                 kBs);
  }
};

TEST(CompiledPlanTest, CompileRecordsSolverTable) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->system(), SystemMode::kFuseMe);
  EXPECT_EQ(compiled->forced(), OperatorKind::kAuto);
  EXPECT_FALSE(compiled->analytic());
  EXPECT_EQ(compiled->verify(), VerifyLevel::kPlanner);
  EXPECT_TRUE(compiled->table().verified);
  EXPECT_TRUE(compiled->diagnostics().empty());
  ASSERT_FALSE(compiled->stages().empty());
  ASSERT_EQ(compiled->stages().size(), compiled->plans().plans.size());
  for (const CompiledStage& stage : compiled->stages()) {
    EXPECT_NE(stage.kind, OperatorKind::kAuto);
    EXPECT_NE(SolverRegistry::Global().Find(stage.solver_id), nullptr)
        << stage.solver_id;
    ASSERT_TRUE(stage.prediction_status.ok()) << stage.prediction_status;
    EXPECT_TRUE(stage.prediction.present);
    EXPECT_GT(stage.prediction.num_tasks, 0);
  }
}

TEST(CompiledPlanTest, ExecuteMatchesRunOnSparseWorkloadAllSystems) {
  GnmfFixture f;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    SCOPED_TRACE(std::string(SystemModeName(mode)));
    Engine engine(Options(mode));
    const Engine::RunResult base = engine.Run(f.q.dag, f.inputs);
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
  }
}

TEST(CompiledPlanTest, ExecuteMatchesRunOnDenseWorkload) {
  DenseNmfFixture f;
  Engine engine(Options());
  const Engine::RunResult base = engine.Run(f.q.dag, f.inputs);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
}

TEST(CompiledPlanTest, ExecuteMatchesRunUnderFaultSchedules) {
  // The injector's schedule is a pure function of (seed, stage, item,
  // attempt): replaying a compiled artifact must reproduce the same
  // failures, retries, and recovered outputs as the single-shot run.
  GnmfFixture f;
  for (const auto& [seed, probability] :
       std::vector<std::pair<std::uint64_t, double>>{{7, 0.3}, {11, 0.6}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineOptions options = Options();
    options.faults.seed = seed;
    options.faults.task_failure_probability = probability;
    options.recovery.retry.max_attempts = 5;
    options.recovery.retry.backoff_base_seconds = 0.0;
    Engine engine(options);
    const Engine::RunResult base = engine.Run(f.q.dag, f.inputs);
    ASSERT_TRUE(base.report.ok()) << base.report.status;
    Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExpectIdenticalRuns(base, engine.Execute(*compiled, f.inputs));
  }
}

TEST(CompiledPlanTest, RepeatedExecutesAreIdenticalWithoutReResolution) {
  // Compile exactly once: the solver-resolution counters move during
  // Compile and must stay flat across any number of Executes.
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options();
  options.metrics = &metrics;
  Engine engine(options);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto resolutions = [&] {
    std::map<std::string, std::int64_t> counts;
    for (const char* id :
         {solver_names::kCfo, solver_names::kCfoSpmm, solver_names::kCfoSddmm,
          solver_names::kBfo, solver_names::kRfo, solver_names::kCpmm}) {
      counts[id] = metrics
                       .GetCounter(metric_names::kSolverResolutions,
                                   {{"solver", id}})
                       ->value();
    }
    return counts;
  };
  const auto after_compile = resolutions();
  std::int64_t total = 0;
  for (const auto& [id, count] : after_compile) total += count;
  EXPECT_GT(total, 0) << "Compile records its solver choices";

  const Engine::RunResult first = engine.Execute(*compiled, f.inputs);
  const Engine::RunResult second = engine.Execute(*compiled, f.inputs);
  ExpectIdenticalRuns(first, second);
  EXPECT_EQ(resolutions(), after_compile)
      << "Execute must replay the recorded solvers, not re-resolve";
}

TEST(CompiledPlanTest, JsonRoundTripExecutesIdentically) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Engine::RunResult base = engine.Execute(*compiled, f.inputs);

  const std::string json = compiled->ToJson();
  Result<CompiledPlan> restored = CompiledPlan::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ToJson(), json) << "re-serialization must be stable";
  ASSERT_EQ(restored->stages().size(), compiled->stages().size());
  for (std::size_t i = 0; i < restored->stages().size(); ++i) {
    EXPECT_EQ(restored->stages()[i].solver_id,
              compiled->stages()[i].solver_id);
    EXPECT_EQ(restored->stages()[i].kind, compiled->stages()[i].kind);
  }
  ExpectIdenticalRuns(base, engine.Execute(*restored, f.inputs));
}

TEST(CompiledPlanTest, FromJsonAcceptsRetiredClusterKeys) {
  // Artifacts written before the in-process prefetch knobs were retired
  // still carry them in "cluster"; the reader must skip them and the
  // restored plan must execute exactly like the original.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Engine::RunResult base = engine.Execute(*compiled, f.inputs);

  const std::string json = compiled->ToJson();
  std::string legacy = json;
  const std::size_t at = legacy.find(",\"local_threads\":");
  ASSERT_NE(at, std::string::npos);
  legacy.insert(at,
                ",\"prefetch_depth\":2,"
                "\"emulated_shuffle_seconds_per_byte\":0");
  Result<CompiledPlan> restored = CompiledPlan::FromJson(legacy);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->ToJson(), json) << "retired keys are dropped";
  ExpectIdenticalRuns(base, engine.Execute(*restored, f.inputs));
}

TEST(CompiledPlanTest, InputBlockSizeMismatchIsAStatus) {
  // X blocked at half the cluster block size: both the compiled path and
  // the single-shot Run must refuse it with a Status, never abort.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> wrong = f.inputs;
  wrong[f.q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0), kBs / 2);
  const Status compat = compiled->CheckCompatible(Options(), wrong);
  EXPECT_TRUE(compat.IsInvalidArgument()) << compat;
  EXPECT_NE(compat.message().find("(X) is blocked at 4"), std::string::npos)
      << compat;
  EXPECT_NE(compat.message().find("cluster block size is 8"),
            std::string::npos)
      << compat;

  const Engine::RunResult executed = engine.Execute(*compiled, wrong);
  EXPECT_EQ(executed.report.status.message(), compat.message());
  EXPECT_TRUE(executed.report.stages.empty());

  const Engine::RunResult run = engine.Run(f.q.dag, wrong);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_EQ(run.report.status.message(), compat.message());
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_TRUE(run.report.stages.empty());
}

TEST(CompiledPlanTest, CheckCompatibleRejectsShapeMismatch) {
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> wrong = f.inputs;
  wrong[f.q.U] =
      BlockedMatrix::FromDense(RandomDense(10, 10, /*seed=*/91), kBs);
  const Engine::RunResult run = engine.Execute(*compiled, wrong);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find("of shape"), std::string::npos)
      << run.report.status;
  EXPECT_TRUE(run.outputs.empty());
  EXPECT_TRUE(run.report.stages.empty())
      << "compatibility is checked before any stage runs";
}

TEST(CompiledPlanTest, CheckCompatibleRejectsSparsityClassDrift) {
  // Compiled against a density-0.2 mask; binding a fully dense matrix of
  // the same shape jumps more than one density bucket.
  GnmfFixture f;
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> dense_mask = f.inputs;
  dense_mask[f.q.X] =
      BlockedMatrix::FromDense(RandomDense(26, 20, /*seed=*/92, 1.0, 5.0),
                               kBs);
  const Engine::RunResult run = engine.Execute(*compiled, dense_mask);
  EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
  EXPECT_NE(run.report.status.message().find(
                "re-compile for this sparsity class"),
            std::string::npos)
      << run.report.status;
}

TEST(CompiledPlanTest, CheckCompatibleRejectsForeignClusterAndSystem) {
  GnmfFixture f;
  Engine compiler(Options());
  Result<CompiledPlan> compiled = compiler.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  EngineOptions bigger_blocks = Options();
  bigger_blocks.cluster.block_size = 16;
  const Engine::RunResult cluster_run =
      Engine(bigger_blocks).Execute(*compiled, f.inputs);
  EXPECT_TRUE(cluster_run.report.status.IsInvalidArgument())
      << cluster_run.report.status;
  EXPECT_NE(
      cluster_run.report.status.message().find("cluster mismatch: block_size"),
      std::string::npos)
      << cluster_run.report.status;

  const Engine::RunResult system_run =
      Engine(Options(SystemMode::kSystemDs)).Execute(*compiled, f.inputs);
  EXPECT_TRUE(system_run.report.status.IsInvalidArgument())
      << system_run.report.status;
  EXPECT_NE(system_run.report.status.message().find("compiled for system"),
            std::string::npos)
      << system_run.report.status;
}

TEST(CompiledPlanTest, TamperedSolverIdFailsFromJson) {
  // Swap the recorded CFO-family solver for the BFO one: the registry
  // check (verifier rule compiled-solver) must refuse the artifact.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  Engine engine(Options());
  Result<CompiledPlan> compiled =
      engine.CompileWithPlans(q.dag, full, OperatorKind::kCfo);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_EQ(compiled->stages().size(), 1u);
  EXPECT_EQ(compiled->stages()[0].solver_id, solver_names::kCfoSpmm);

  std::string json = compiled->ToJson();
  const std::string original =
      std::string("\"solver\":\"") + solver_names::kCfoSpmm + "\"";
  const std::size_t at = json.find(original);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, original.size(),
               std::string("\"solver\":\"") + solver_names::kBfo + "\"");
  Result<CompiledPlan> tampered = CompiledPlan::FromJson(json);
  ASSERT_FALSE(tampered.ok());
  EXPECT_NE(tampered.status().message().find("compiled-solver"),
            std::string::npos)
      << tampered.status();
}

TEST(CompiledPlanTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(CompiledPlan::FromJson("").ok());
  EXPECT_FALSE(CompiledPlan::FromJson("not json at all").ok());
  EXPECT_FALSE(CompiledPlan::FromJson("{\"version\":1}").ok());
}

TEST(CompiledPlanTest, CompileWithPlansRejectsMalformedPlan) {
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet bad;
  // Root outside the member set — the checked PartialPlan constructor
  // would refuse this, so CompileWithPlans must too.
  bad.plans.push_back(
      PartialPlan::UncheckedForTest(&q.dag, {q.vT, q.mm}, q.mul));
  Engine engine(Options());
  Result<CompiledPlan> compiled = engine.CompileWithPlans(q.dag, bad);
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsInvalidArgument()) << compiled.status();
  EXPECT_NE(compiled.status().message().find("plan #0"), std::string::npos)
      << compiled.status();
}

}  // namespace
}  // namespace fuseme
