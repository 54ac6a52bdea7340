// Stage-solver registry (DESIGN.md section 18): catalogue completeness,
// refined-first resolution order, and — the MIOpen-style contract — every
// solver's IsApplicable returning a *precise* Status naming the violated
// precondition on crafted-unsupported stages.

#include "engine/solver_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "compile_execute.h"
#include "cost/cost_model.h"
#include "engine/engine.h"
#include "engine/solver_names.h"
#include "fusion/partial_plan.h"
#include "ir/dag.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

ClusterConfig Cluster(std::int64_t budget = 1LL << 40) {
  ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.tasks_per_node = 3;
  cluster.block_size = kBs;
  cluster.task_memory_budget = budget;
  return cluster;
}

void ExpectRejectedWith(const Status& status, const std::string& fragment) {
  ASSERT_FALSE(status.ok()) << "expected a precondition rejection";
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
  EXPECT_NE(status.message().find(fragment), std::string::npos)
      << "message \"" << status.message() << "\" lacks \"" << fragment
      << "\"";
}

/// The full fused NMF stage X * log(U x V^T + eps); x_nnz selects the
/// mask's sparsity class (288 of 40x36 = density 0.2, under the sparse-
/// driver threshold; 40*36 = fully dense).
struct NmfFixture {
  NmfPattern q;
  FusionPlanSet full;

  explicit NmfFixture(std::int64_t x_nnz)
      : q(BuildNmfPattern(40, 36, 24, x_nnz)) {
    full.plans.emplace_back(
        &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }
  const PartialPlan& plan() const { return full.plans.front(); }
};

TEST(SolverRegistryTest, CatalogueIsComplete) {
  const SolverRegistry& registry = SolverRegistry::Global();
  EXPECT_EQ(registry.solvers().size(), 6u);
  for (const char* id :
       {solver_names::kCfo, solver_names::kCfoSpmm, solver_names::kCfoSddmm,
        solver_names::kBfo, solver_names::kRfo, solver_names::kCpmm}) {
    const StageSolver* solver = registry.Find(id);
    ASSERT_NE(solver, nullptr) << id;
    EXPECT_EQ(solver->id(), id);
    EXPECT_NE(solver->kind(), OperatorKind::kAuto) << id;
  }
  EXPECT_EQ(registry.Find("solver.nonexistent"), nullptr);
  EXPECT_EQ(registry.Find(""), nullptr);
}

TEST(SolverRegistryTest, ForKindIsRefinedFirst) {
  const SolverRegistry& registry = SolverRegistry::Global();
  const auto cfo = registry.ForKind(OperatorKind::kCfo);
  ASSERT_EQ(cfo.size(), 3u);
  EXPECT_EQ(cfo[0]->id(), solver_names::kCfoSddmm);
  EXPECT_EQ(cfo[1]->id(), solver_names::kCfoSpmm);
  EXPECT_EQ(cfo[2]->id(), solver_names::kCfo);
  for (auto [kind, id] :
       std::vector<std::pair<OperatorKind, const char*>>{
           {OperatorKind::kBfo, solver_names::kBfo},
           {OperatorKind::kRfo, solver_names::kRfo},
           {OperatorKind::kCpmm, solver_names::kCpmm}}) {
    const auto solvers = registry.ForKind(kind);
    ASSERT_EQ(solvers.size(), 1u) << id;
    EXPECT_EQ(solvers[0]->id(), id);
  }
  EXPECT_TRUE(registry.ForKind(OperatorKind::kAuto).empty());
}

TEST(SolverRegistryTest, ResolveNullOnlyForAuto) {
  NmfFixture f(/*x_nnz=*/288);
  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  EXPECT_EQ(SolverRegistry::Global().Resolve(env, OperatorKind::kAuto,
                                             f.plan()),
            nullptr);
  for (OperatorKind kind : {OperatorKind::kCfo, OperatorKind::kBfo,
                            OperatorKind::kRfo, OperatorKind::kCpmm}) {
    EXPECT_NE(SolverRegistry::Global().Resolve(env, kind, f.plan()), nullptr);
  }
}

TEST(SolverRegistryTest, EmptyPlanRejectedByEverySolver) {
  // Fused operators iterate member operator nodes; a memberless region has
  // nothing to execute, and every solver must say so by name.
  Dag dag;
  const NodeId x = *dag.AddInput("X", 16, 16);
  const NodeId y = *dag.AddInput("Y", 16, 16);
  const NodeId add = *dag.AddBinary(BinaryFn::kAdd, x, y);
  dag.MarkOutput(add);
  const PartialPlan empty = PartialPlan::UncheckedForTest(&dag, {}, add);

  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  for (const StageSolver* solver : SolverRegistry::Global().solvers()) {
    SCOPED_TRACE(std::string(solver->id()));
    const Status status = solver->IsApplicable(env, empty);
    ExpectRejectedWith(
        status, "requires a fused region with at least one member operator");
    EXPECT_NE(status.message().find(solver->id()), std::string::npos)
        << "rejection must name the solver: " << status.message();
  }
}

TEST(SolverRegistryTest, MatmulFreePlanRejectsMatmulSolvers) {
  // log(mm + eps) with the matmul left *outside* the region: the sparse
  // refinements and cpmm have no member matmul to anchor to, while the
  // base operators still apply.
  NmfFixture f(/*x_nnz=*/288);
  const PartialPlan cell(&f.q.dag, {f.q.add, f.q.log}, f.q.log);
  ASSERT_TRUE(cell.MatMuls().empty());

  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  const SolverRegistry& registry = SolverRegistry::Global();
  ExpectRejectedWith(
      registry.Find(solver_names::kCfoSpmm)->IsApplicable(env, cell),
      "the plan has none");
  ExpectRejectedWith(
      registry.Find(solver_names::kCfoSddmm)->IsApplicable(env, cell),
      "the plan has none");
  ExpectRejectedWith(
      registry.Find(solver_names::kCpmm)->IsApplicable(env, cell),
      "common dimension; the plan has none");
  EXPECT_TRUE(
      registry.Find(solver_names::kCfo)->IsApplicable(env, cell).ok());
  EXPECT_TRUE(
      registry.Find(solver_names::kBfo)->IsApplicable(env, cell).ok());
  EXPECT_TRUE(
      registry.Find(solver_names::kRfo)->IsApplicable(env, cell).ok());

  const StageSolver* chosen = registry.Resolve(env, OperatorKind::kCfo, cell);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->id(), solver_names::kCfo);
}

TEST(SolverRegistryTest, SparseMaskThroughChainResolvesToSpmm) {
  // X * log(U x V^T + eps) with sparse X: the mask reaches the product
  // through an element-wise chain, so SpMM engages but SDDMM — which
  // needs the mask on the product directly — must reject with the chain
  // diagnosis.
  NmfFixture f(/*x_nnz=*/288);
  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  const SolverRegistry& registry = SolverRegistry::Global();
  EXPECT_TRUE(registry.Find(solver_names::kCfoSpmm)
                  ->IsApplicable(env, f.plan())
                  .ok());
  ExpectRejectedWith(
      registry.Find(solver_names::kCfoSddmm)->IsApplicable(env, f.plan()),
      "the mask applies through an element-wise chain");

  const StageSolver* chosen =
      registry.Resolve(env, OperatorKind::kCfo, f.plan());
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->id(), solver_names::kCfoSpmm);
}

TEST(SolverRegistryTest, DirectMaskResolvesToSddmm) {
  // X * (U x V^T) with sparse X masking the product directly: the
  // canonical SDDMM shape, and the most refined CFO solver wins.
  Dag dag;
  const NodeId x = *dag.AddInput("X", 40, 36, /*nnz=*/288);
  const NodeId u = *dag.AddInput("U", 40, 24);
  const NodeId v = *dag.AddInput("V", 36, 24);
  const NodeId vt = *dag.AddTranspose(v);
  const NodeId mm = *dag.AddMatMul(u, vt);
  const NodeId mul = *dag.AddBinary(BinaryFn::kMul, x, mm);
  dag.MarkOutput(mul);
  const PartialPlan plan(&dag, {vt, mm, mul}, mul);

  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  const SolverRegistry& registry = SolverRegistry::Global();
  EXPECT_TRUE(
      registry.Find(solver_names::kCfoSddmm)->IsApplicable(env, plan).ok());
  const StageSolver* chosen = registry.Resolve(env, OperatorKind::kCfo, plan);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->id(), solver_names::kCfoSddmm);
}

TEST(SolverRegistryTest, DenseMaskFallsBackToBaseCfoAndCountsRejections) {
  // Fully dense X disqualifies both sparse refinements ("no sparse driver
  // found"); resolution falls back to the base CFO and the metric
  // families record exactly what happened.
  NmfFixture f(/*x_nnz=*/40 * 36);
  CostModel model(Cluster());
  MetricsRegistry metrics;
  SolverEnv env;
  env.model = &model;
  env.metrics = &metrics;
  const SolverRegistry& registry = SolverRegistry::Global();
  ExpectRejectedWith(
      registry.Find(solver_names::kCfoSpmm)->IsApplicable(env, f.plan()),
      "no sparse driver found");
  ExpectRejectedWith(
      registry.Find(solver_names::kCfoSddmm)->IsApplicable(env, f.plan()),
      "no sparse driver found");

  const StageSolver* chosen =
      registry.Resolve(env, OperatorKind::kCfo, f.plan());
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->id(), solver_names::kCfo);
  auto count = [&](const char* name, const char* solver) {
    return metrics.GetCounter(name, {{"solver", solver}})->value();
  };
  EXPECT_EQ(count(metric_names::kSolverRejections, solver_names::kCfoSddmm),
            1);
  EXPECT_EQ(count(metric_names::kSolverRejections, solver_names::kCfoSpmm),
            1);
  EXPECT_EQ(count(metric_names::kSolverResolutions, solver_names::kCfo), 1);
  EXPECT_EQ(count(metric_names::kSolverResolutions, solver_names::kCfoSpmm),
            0);
}

TEST(SolverRegistryTest, TinyBudgetRejectionsNameTheBudget) {
  // A 128-byte task budget (half a block): BFO cannot broadcast the side
  // matrices, RFO cannot replicate its (I,J,1) slice, and cpmm finds no
  // feasible (1,1,R) cuboid — each says exactly why.
  NmfFixture f(/*x_nnz=*/288);
  CostModel model(Cluster(/*budget=*/128));
  SolverEnv env;
  env.model = &model;
  const SolverRegistry& registry = SolverRegistry::Global();
  ExpectRejectedWith(
      registry.Find(solver_names::kBfo)->IsApplicable(env, f.plan()),
      "must broadcast");
  ExpectRejectedWith(
      registry.Find(solver_names::kRfo)->IsApplicable(env, f.plan()),
      "replicates");
  ExpectRejectedWith(
      registry.Find(solver_names::kCpmm)->IsApplicable(env, f.plan()),
      "found no (1,1,R) cuboid within the per-task memory budget");
}

TEST(SolverRegistryTest, ReshapedOutputRejectsCpmm) {
  // t(A x B) with a non-square product: the O-space reshapes the matmul
  // output, so k-split partials have no coordinate-wise merge.
  Dag dag;
  const NodeId a = *dag.AddInput("A", 40, 24);
  const NodeId b = *dag.AddInput("B", 24, 36);
  const NodeId mm = *dag.AddMatMul(a, b);
  const NodeId t = *dag.AddTranspose(mm);
  dag.MarkOutput(t);
  const PartialPlan plan(&dag, {mm, t}, t);

  CostModel model(Cluster());
  SolverEnv env;
  env.model = &model;
  ExpectRejectedWith(SolverRegistry::Global()
                         .Find(solver_names::kCpmm)
                         ->IsApplicable(env, plan),
                     "cannot split the common dimension");
}

TEST(SolverRegistryTest, ConcurrentResolutionIsSafe) {
  // The registry is immutable after magic-static init, so Find / ForKind /
  // Resolve / IsApplicable from many threads must race-free agree (run
  // under scripts/run_tsan.sh).
  NmfFixture sparse(/*x_nnz=*/288);
  NmfFixture dense(/*x_nnz=*/40 * 36);
  CostModel model(Cluster());
  std::atomic<int> spmm_hits{0};
  std::atomic<int> cfo_hits{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      // Thread-local metrics: SolverEnv sinks are per-engine in
      // production, and the counters themselves are exercised elsewhere.
      MetricsRegistry metrics;
      SolverEnv env;
      env.model = &model;
      env.metrics = &metrics;
      const SolverRegistry& registry = SolverRegistry::Global();
      for (int iter = 0; iter < 50; ++iter) {
        const StageSolver* s =
            registry.Resolve(env, OperatorKind::kCfo, sparse.plan());
        if (s != nullptr && s->id() == solver_names::kCfoSpmm) ++spmm_hits;
        const StageSolver* d =
            registry.Resolve(env, OperatorKind::kCfo, dense.plan());
        if (d != nullptr && d->id() == solver_names::kCfo) ++cfo_hits;
        ASSERT_NE(registry.Find(solver_names::kBfo), nullptr);
        ASSERT_EQ(registry.ForKind(OperatorKind::kCfo).size(), 3u);
        ASSERT_TRUE(registry.Find(solver_names::kRfo)
                        ->IsApplicable(env, sparse.plan())
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(spmm_hits.load(), 8 * 50);
  EXPECT_EQ(cfo_hits.load(), 8 * 50);
}

TEST(SolverRegistryTest, DescribeListsEverySolverVerdict) {
  // Engine::Describe: the planner's stages with all six solvers' verdicts
  // each, exactly one marked as what Compile would choose.
  NmfFixture f(/*x_nnz=*/288);
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster = Cluster();
  Engine engine = MakeEngine(options);
  const PlanDescription described = engine.Describe(f.q.dag);
  ASSERT_FALSE(described.stages.empty());
  for (const StageDescription& stage : described.stages) {
    SCOPED_TRACE(stage.label);
    EXPECT_EQ(stage.candidates.size(), 6u);
    EXPECT_NE(stage.kind, OperatorKind::kAuto);
    int chosen = 0;
    for (const SolverCandidate& c : stage.candidates) {
      if (c.chosen) {
        ++chosen;
        EXPECT_TRUE(c.applicability.ok())
            << c.solver_id << " chosen yet inapplicable: "
            << c.applicability;
      }
      EXPECT_NE(SolverRegistry::Global().Find(c.solver_id), nullptr)
          << c.solver_id;
    }
    EXPECT_EQ(chosen, 1);
  }
  const std::string text = described.ToString();
  EXPECT_NE(text.find("planner:"), std::string::npos);
  EXPECT_NE(text.find(solver_names::kCfo), std::string::npos);
  EXPECT_NE(text.find("rejected:"), std::string::npos)
      << "at least one verdict should carry its precondition message:\n"
      << text;
}

}  // namespace
}  // namespace fuseme
