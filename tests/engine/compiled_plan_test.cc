// CompiledPlan (DESIGN.md section 18): an executed artifact matches the
// single-node reference, and replaying it after other executes is bitwise
// identical to a freshly compiled one across dense and sparse workloads
// and down the OOM degradation ladder; the JSON artifact round-trips; and
// CheckCompatible rejects mismatched shapes, block sizes, sparsity
// classes, and clusters with precise messages before any stage runs.

#include "engine/compiled_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "compile_execute.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "engine/solver_names.h"
#include "engine/solver_registry.h"
#include "fusion/partial_plan.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
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

/// Bitwise comparison: outputs, per-stage accounting, and the degradation
/// ladder's trace — the same bar the determinism suites hold parallel
/// runs to.
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
  EXPECT_EQ(a.degradations, b.degradations);

  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t s = 0; s < a.telemetry.size(); ++s) {
    EXPECT_EQ(a.telemetry[s].label, b.telemetry[s].label);
    EXPECT_EQ(a.telemetry[s].degradations, b.telemetry[s].degradations)
        << a.telemetry[s].label;
  }
}

/// Every output of `run` against the single-node oracle over `inputs`.
void ExpectMatchesReference(const Dag& dag,
                            const std::map<NodeId, BlockedMatrix>& inputs,
                            const Engine::RunResult& run) {
  ASSERT_TRUE(run.report.ok()) << run.report.status;
  std::map<NodeId, DenseMatrix> dense;
  for (const auto& [id, m] : inputs) dense.emplace(id, m.ToDense());
  ASSERT_EQ(run.outputs.size(), dag.outputs().size());
  for (const auto& [id, dm] : run.outputs) {
    Result<DenseMatrix> expected = ReferenceEval(dag, id, dense);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_LE(DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(), *expected), 1e-8)
        << "output v" << id;
  }
}

/// Compiles `dag` once and executes that artifact three times, with a
/// second, freshly compiled artifact executed in between; the third
/// execute of the first artifact must be bitwise identical to the fresh
/// artifact's only one.  Returns the fresh result for further checks.
Engine::RunResult ExpectReplayMatchesFreshCompile(
    const Engine& engine, const Dag& dag,
    const std::map<NodeId, BlockedMatrix>& inputs) {
  Result<CompiledPlan> warm = engine.Compile(dag);
  EXPECT_TRUE(warm.ok()) << warm.status();
  if (!warm.ok()) return {};
  engine.Execute(*warm, inputs);
  engine.Execute(*warm, inputs);
  Result<CompiledPlan> fresh = engine.Compile(dag);
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  if (!fresh.ok()) return {};
  Engine::RunResult fresh_run = engine.Execute(*fresh, inputs);
  ExpectIdenticalRuns(fresh_run, engine.Execute(*warm, inputs));
  return fresh_run;
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
  const Engine engine = MakeEngine(Options());
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

TEST(CompiledPlanTest, ExecuteMatchesReferenceOnSparseWorkloadAllSystems) {
  GnmfFixture f;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    SCOPED_TRACE(std::string(SystemModeName(mode)));
    const Engine engine = MakeEngine(Options(mode));
    ExpectMatchesReference(
        f.q.dag, f.inputs,
        ExpectReplayMatchesFreshCompile(engine, f.q.dag, f.inputs));
  }
}

TEST(CompiledPlanTest, ExecuteMatchesReferenceOnDenseWorkload) {
  DenseNmfFixture f;
  const Engine engine = MakeEngine(Options());
  ExpectMatchesReference(
      f.q.dag, f.inputs,
      ExpectReplayMatchesFreshCompile(engine, f.q.dag, f.inputs));
}

TEST(CompiledPlanTest, ReplayedArtifactClimbsTheSameDegradationLadder) {
  // The fused NMF plan forced onto the broadcast operator, under a budget
  // BFO exceeds but the cuboid operator fits: every Execute of the one
  // artifact starts at the compiled BFO rung, degrades live, and must
  // reproduce a fresh compile's run bit for bit — ladder trace included.
  NmfPattern q = BuildNmfPattern(26, 22, 10, /*x_nnz=*/57);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 22, 0.1, /*seed=*/71, 1.0, 2.0), kBs);
  inputs[q.U] =
      BlockedMatrix::FromDense(RandomDense(26, 10, /*seed=*/72, 0.5, 1.5), kBs);
  inputs[q.V] =
      BlockedMatrix::FromDense(RandomDense(22, 10, /*seed=*/73, 0.5, 1.5), kBs);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  const Engine roomy = MakeEngine(Options());
  const Engine::RunResult bfo_probe =
      CompileAndExecute(roomy, q.dag, full, inputs, OperatorKind::kBfo);
  const Engine::RunResult cfo_probe =
      CompileAndExecute(roomy, q.dag, full, inputs, OperatorKind::kCfo);
  ASSERT_TRUE(bfo_probe.ok()) << bfo_probe.status();
  ASSERT_TRUE(cfo_probe.ok()) << cfo_probe.status();
  Result<StagePrediction> cfo_pred =
      roomy.PredictStage(full.plans.front(), OperatorKind::kCfo);
  ASSERT_TRUE(cfo_pred.ok()) << cfo_pred.status();
  const std::int64_t cfo_needs =
      std::max(cfo_probe.report.max_task_memory,
               static_cast<std::int64_t>(cfo_pred->mem_per_task));
  ASSERT_LT(cfo_needs, bfo_probe.report.max_task_memory);
  EngineOptions options = Options();
  options.cluster.task_memory_budget =
      (cfo_needs + bfo_probe.report.max_task_memory) / 2;
  options.recovery.degrade_on_oom = true;
  const Engine engine = MakeEngine(options);

  Result<CompiledPlan> warm =
      engine.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(warm.ok()) << warm.status();
  const Engine::RunResult first = engine.Execute(*warm, inputs);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_FALSE(first.report.degradations.empty());
  EXPECT_EQ(first.report.degradations.front().from.rfind("BFO", 0), 0u);
  ExpectMatchesReference(q.dag, inputs, first);

  Result<CompiledPlan> fresh =
      engine.CompileWithPlans(q.dag, full, OperatorKind::kBfo);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ExpectIdenticalRuns(engine.Execute(*fresh, inputs),
                      engine.Execute(*warm, inputs));
}

TEST(CompiledPlanTest, RepeatedExecutesAreIdenticalWithoutReResolution) {
  // Compile exactly once: the solver-resolution counters move during
  // Compile and must stay flat across any number of Executes.
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions options = Options();
  options.metrics = &metrics;
  const Engine engine = MakeEngine(options);
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
  const Engine engine = MakeEngine(Options());
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
  const Engine engine = MakeEngine(Options());
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
  // X blocked at half the cluster block size: Execute must refuse it with
  // a Status, never abort.
  GnmfFixture f;
  const Engine engine = MakeEngine(Options());
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
  EXPECT_TRUE(executed.report.status.IsInvalidArgument())
      << executed.report.status;
  EXPECT_EQ(executed.report.status.message(), compat.message());
  EXPECT_TRUE(executed.outputs.empty());
  EXPECT_TRUE(executed.report.stages.empty());
}

TEST(CompiledPlanTest, CheckCompatibleRejectsShapeMismatch) {
  // Each binding once aborted the process (a FUSEME_CHECK in the block
  // kernels or the blocked-matrix grid) or failed deep inside a kernel
  // when the plan ran unchecked; Execute must refuse every one up front
  // with a Status naming the input.
  GnmfFixture f;
  const Engine engine = MakeEngine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  struct Binding {
    NodeId id;
    const char* name;
    std::int64_t rows, cols;
  };
  for (const Binding& b : std::vector<Binding>{{f.q.X, "X", 26, 9},
                                               {f.q.V, "V", 17, 6},
                                               {f.q.V, "V", 26, 9},
                                               {f.q.V, "V", 26, 3},
                                               {f.q.X, "X", 40, 20},
                                               {f.q.U, "U", 6, 12},
                                               {f.q.U, "U", 3, 20}}) {
    SCOPED_TRACE(std::string(b.name) + " bound " + std::to_string(b.rows) +
                 "x" + std::to_string(b.cols));
    std::map<NodeId, BlockedMatrix> wrong = f.inputs;
    wrong[b.id] =
        b.id == f.q.X
            ? BlockedMatrix::FromSparse(
                  RandomSparse(b.rows, b.cols, 0.2, /*seed=*/91, 1.0, 5.0),
                  kBs)
            : BlockedMatrix::FromDense(
                  RandomDense(b.rows, b.cols, /*seed=*/91, 0.5, 1.5), kBs);
    const Engine::RunResult run = engine.Execute(*compiled, wrong);
    EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
    EXPECT_NE(run.report.status.message().find(
                  "input v" + std::to_string(b.id) + " (" + b.name +
                  ") of shape"),
              std::string::npos)
        << run.report.status;
    EXPECT_TRUE(run.outputs.empty());
    EXPECT_TRUE(run.report.stages.empty())
        << "compatibility is checked before any stage runs";
  }
}

TEST(CompiledPlanTest, CheckCompatibleRejectsSparsityClassDrift) {
  // Compiled against a density-0.2 mask; binding a fully dense matrix of
  // the same shape jumps more than one density bucket.
  GnmfFixture f;
  const Engine engine = MakeEngine(Options());
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
  const Engine compiler = MakeEngine(Options());
  Result<CompiledPlan> compiled = compiler.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  EngineOptions bigger_blocks = Options();
  bigger_blocks.cluster.block_size = 16;
  const Engine::RunResult cluster_run =
      MakeEngine(bigger_blocks).Execute(*compiled, f.inputs);
  EXPECT_TRUE(cluster_run.report.status.IsInvalidArgument())
      << cluster_run.report.status;
  EXPECT_NE(
      cluster_run.report.status.message().find("cluster mismatch: block_size"),
      std::string::npos)
      << cluster_run.report.status;

  const Engine::RunResult system_run =
      MakeEngine(Options(SystemMode::kSystemDs)).Execute(*compiled, f.inputs);
  EXPECT_TRUE(system_run.report.status.IsInvalidArgument())
      << system_run.report.status;
  EXPECT_NE(system_run.report.status.message().find("compiled for system"),
            std::string::npos)
      << system_run.report.status;
}

TEST(CompiledPlanTest, CheckCompatibleNamesEachMismatchedClusterField) {
  // Every modeling field the plans and cuboids were chosen for is checked
  // on its own, and the rejection names that field.
  GnmfFixture f;
  const Engine compiler = MakeEngine(Options());
  Result<CompiledPlan> compiled = compiler.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  struct Field {
    const char* name;
    void (*mutate)(ClusterConfig*);
  };
  for (const Field& field : std::vector<Field>{
           {"num_nodes", [](ClusterConfig* c) { c->num_nodes = 3; }},
           {"tasks_per_node", [](ClusterConfig* c) { c->tasks_per_node = 4; }},
           {"task_memory_budget",
            [](ClusterConfig* c) { c->task_memory_budget /= 2; }},
           {"net_bandwidth", [](ClusterConfig* c) { c->net_bandwidth *= 2; }},
           {"compute_bandwidth",
            [](ClusterConfig* c) { c->compute_bandwidth *= 2; }},
           {"block_size", [](ClusterConfig* c) { c->block_size = 16; }},
           {"timeout_seconds",
            [](ClusterConfig* c) { c->timeout_seconds *= 2; }},
           {"task_launch_overhead",
            [](ClusterConfig* c) { c->task_launch_overhead += 0.5; }},
           {"shuffle_cpu_factor",
            [](ClusterConfig* c) { c->shuffle_cpu_factor += 0.5; }},
           {"overlap_factor",
            [](ClusterConfig* c) { c->overlap_factor = 0.25; }}}) {
    SCOPED_TRACE(field.name);
    EngineOptions options = Options();
    field.mutate(&options.cluster);
    const Engine::RunResult run =
        MakeEngine(options).Execute(*compiled, f.inputs);
    EXPECT_TRUE(run.report.status.IsInvalidArgument()) << run.report.status;
    EXPECT_NE(run.report.status.message().find(
                  std::string("cluster mismatch: ") + field.name + " is"),
              std::string::npos)
        << run.report.status;
    EXPECT_TRUE(run.outputs.empty());
    EXPECT_TRUE(run.report.stages.empty());
  }
}

TEST(CompiledPlanTest, CheckCompatibleRejectsForeignExecutionMode) {
  // An analytic artifact carries descriptor plans, a real one block plans;
  // neither may run on an engine of the other mode.
  GnmfFixture f;
  EngineOptions analytic = Options();
  analytic.analytic = true;
  Result<CompiledPlan> from_analytic = MakeEngine(analytic).Compile(f.q.dag);
  ASSERT_TRUE(from_analytic.ok()) << from_analytic.status();
  Result<CompiledPlan> from_real = MakeEngine(Options()).Compile(f.q.dag);
  ASSERT_TRUE(from_real.ok()) << from_real.status();

  const Engine::RunResult on_real =
      MakeEngine(Options()).Execute(*from_analytic, f.inputs);
  EXPECT_TRUE(on_real.report.status.IsInvalidArgument())
      << on_real.report.status;
  EXPECT_NE(on_real.report.status.message().find(
                "compiled in analytic mode; the executing engine runs in "
                "real mode"),
            std::string::npos)
      << on_real.report.status;

  const Engine::RunResult on_analytic =
      MakeEngine(analytic).Execute(*from_real, {});
  EXPECT_TRUE(on_analytic.report.status.IsInvalidArgument())
      << on_analytic.report.status;
  EXPECT_NE(on_analytic.report.status.message().find(
                "compiled in real mode; the executing engine runs in "
                "analytic mode"),
            std::string::npos)
      << on_analytic.report.status;
}

TEST(CompiledPlanTest, LocalThreadsAreNotPartOfCompatibility) {
  // local_threads is result-invariant, so an artifact compiled on a
  // serial engine runs on a parallel one, bitwise like the serial run.
  GnmfFixture f;
  EngineOptions serial = Options();
  serial.cluster.local_threads = 1;
  EngineOptions parallel = Options();
  parallel.cluster.local_threads = 4;
  const Engine serial_engine = MakeEngine(serial);
  Result<CompiledPlan> compiled = serial_engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const Status compat = compiled->CheckCompatible(parallel, f.inputs);
  EXPECT_TRUE(compat.ok()) << compat;
  ExpectIdenticalRuns(serial_engine.Execute(*compiled, f.inputs),
                      MakeEngine(parallel).Execute(*compiled, f.inputs));
}

TEST(CompiledPlanTest, ArtifactExecutesOnAnotherEngineWithEqualOptions) {
  // The artifact holds everything Execute needs: a second engine built
  // from the same options replays it exactly like the compiling engine.
  GnmfFixture f;
  const Engine compiler = MakeEngine(Options());
  Result<CompiledPlan> compiled = compiler.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ExpectIdenticalRuns(compiler.Execute(*compiled, f.inputs),
                      MakeEngine(Options()).Execute(*compiled, f.inputs));
}

TEST(CompiledPlanTest, ArtifactOutlivesTheDagItWasCompiledFrom) {
  // Compile copies the DAG into the artifact, so the caller's DAG may go
  // away before the artifact executes.
  const Engine engine = MakeEngine(Options());
  std::map<NodeId, BlockedMatrix> inputs;
  Result<CompiledPlan> compiled = [&] {
    GnmfFixture f;
    inputs = f.inputs;
    return engine.Compile(f.q.dag);
  }();
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ExpectMatchesReference(compiled->dag(), inputs,
                         engine.Execute(*compiled, inputs));
}

TEST(CompiledPlanTest, ExecuteRebindsNewDataOfTheCompiledClass) {
  // One artifact, two data sets of the compiled shapes and density class:
  // each execute computes its own inputs' answer.
  GnmfFixture f;
  const Engine engine = MakeEngine(Options());
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> other;
  other[f.q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 20, 0.2, /*seed=*/61, 1.0, 5.0), kBs);
  other[f.q.V] =
      BlockedMatrix::FromDense(RandomDense(26, 6, /*seed=*/62, 0.5, 1.5), kBs);
  other[f.q.U] =
      BlockedMatrix::FromDense(RandomDense(6, 20, /*seed=*/63, 0.5, 1.5), kBs);

  const Engine::RunResult first = engine.Execute(*compiled, f.inputs);
  const Engine::RunResult second = engine.Execute(*compiled, other);
  ExpectMatchesReference(f.q.dag, f.inputs, first);
  ExpectMatchesReference(f.q.dag, other, second);
  ASSERT_EQ(first.outputs.size(), second.outputs.size());
  for (const auto& [id, dm] : first.outputs) {
    EXPECT_GT(DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(),
                                      second.outputs.at(id).blocks().ToDense()),
              0.0)
        << "output v" << id << " must follow the bound data";
  }
}

/// Structural plan-set verifications recorded so far.
std::int64_t PlanSetChecks(const MetricsRegistry& metrics) {
  const MetricsSnapshot snapshot = metrics.Snapshot();
  const MetricSample* sample = snapshot.Find(metric_names::kVerifierChecks,
                                             {{"artifact", "plan_set"}});
  return sample != nullptr ? sample->counter_value : 0;
}

TEST(CompiledPlanTest, ExecuteReVerifiesOnlyUnverifiedOrParanoid) {
  // Compile caches the structural verification; Execute replays it, and
  // re-runs the verifier only for an artifact compiled unverified or on a
  // kParanoid engine.
  GnmfFixture f;
  MetricsRegistry metrics;
  EngineOptions planner = Options();
  planner.metrics = &metrics;
  const Engine planner_engine = MakeEngine(planner);

  Result<CompiledPlan> verified = planner_engine.Compile(f.q.dag);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_TRUE(verified->table().verified);
  const std::int64_t after_compile = PlanSetChecks(metrics);
  EXPECT_GT(after_compile, 0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(planner_engine.Execute(*verified, f.inputs).ok());
  }
  EXPECT_EQ(PlanSetChecks(metrics), after_compile)
      << "a verified artifact is not re-verified";

  EngineOptions off = planner;
  off.verify = VerifyLevel::kOff;
  Result<CompiledPlan> unverified = MakeEngine(off).Compile(f.q.dag);
  ASSERT_TRUE(unverified.ok()) << unverified.status();
  EXPECT_FALSE(unverified->table().verified);
  EXPECT_EQ(PlanSetChecks(metrics), after_compile);
  ASSERT_TRUE(planner_engine.Execute(*unverified, f.inputs).ok());
  EXPECT_EQ(PlanSetChecks(metrics), after_compile + 1)
      << "an unverified artifact is verified on every execute";
  ASSERT_TRUE(MakeEngine(off).Execute(*unverified, f.inputs).ok());
  EXPECT_EQ(PlanSetChecks(metrics), after_compile + 1)
      << "a kOff engine never verifies";

  EngineOptions paranoid = planner;
  paranoid.verify = VerifyLevel::kParanoid;
  ASSERT_TRUE(MakeEngine(paranoid).Execute(*verified, f.inputs).ok());
  EXPECT_EQ(PlanSetChecks(metrics), after_compile + 2)
      << "a kParanoid engine re-verifies even a verified artifact";
}

TEST(CompiledPlanTest, RejectedExecuteEmitsNoJournalEvents) {
  // CheckCompatible runs before the run-start event: a refused binding
  // leaves the flight recorder untouched, an accepted one brackets the
  // run with start and finish.
  GnmfFixture f;
  EngineOptions options = Options();
  options.observability.journal_capacity = 256;
  const Engine engine = MakeEngine(options);
  ASSERT_NE(engine.journal(), nullptr);
  Result<CompiledPlan> compiled = engine.Compile(f.q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  std::map<NodeId, BlockedMatrix> wrong = f.inputs;
  wrong[f.q.U] =
      BlockedMatrix::FromDense(RandomDense(6, 12, /*seed=*/93, 0.5, 1.5), kBs);
  const std::int64_t before = engine.journal()->total_emitted();
  EXPECT_TRUE(
      engine.Execute(*compiled, wrong).report.status.IsInvalidArgument());
  EXPECT_EQ(engine.journal()->total_emitted(), before);

  ASSERT_TRUE(engine.Execute(*compiled, f.inputs).ok());
  const std::vector<JournalEvent> events = engine.journal()->Snapshot();
  ASSERT_GE(events.size(), 2u);
  const auto first = std::find_if(
      events.begin(), events.end(),
      [&](const JournalEvent& e) { return e.seq >= before; });
  ASSERT_NE(first, events.end());
  EXPECT_EQ(first->id, event_names::kRunStart);
  EXPECT_EQ(events.back().id, event_names::kRunFinish);
}

TEST(CompiledPlanTest, TamperedSolverIdFailsFromJson) {
  // Swap the recorded CFO-family solver for the BFO one: the registry
  // check (verifier rule compiled-solver) must refuse the artifact.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  const Engine engine = MakeEngine(Options());
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
  const Engine engine = MakeEngine(Options());
  Result<CompiledPlan> compiled = engine.CompileWithPlans(q.dag, bad);
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsInvalidArgument()) << compiled.status();
  EXPECT_NE(compiled.status().message().find("plan #0"), std::string::npos)
      << compiled.status();
}

}  // namespace
}  // namespace fuseme
