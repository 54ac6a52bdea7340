// PlanVerifier rule coverage: every rule has (a) a clean case where it
// stays silent and (b) a corrupted artifact — built through the test-only
// mutation hooks — that triggers exactly that rule.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "verify/plan_verifier.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

int CountRule(const std::vector<VerifierDiagnostic>& diags,
              std::string_view rule) {
  return static_cast<int>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const VerifierDiagnostic& d) { return d.rule == rule; }));
}

/// Asserts `diags` contains exactly one diagnostic overall and that it
/// fires `rule`.
void ExpectExactly(const std::vector<VerifierDiagnostic>& diags,
                   std::string_view rule) {
  EXPECT_EQ(diags.size(), 1u) << FormatDiagnostics(diags);
  EXPECT_EQ(CountRule(diags, rule), 1) << FormatDiagnostics(diags);
}

// --- DAG rules ------------------------------------------------------------

struct SmallDag {
  Dag dag;
  NodeId X, Y, mm, u;
};

SmallDag MakeSmallDag() {
  SmallDag d;
  d.X = *d.dag.AddInput("X", 40, 60);
  d.Y = *d.dag.AddInput("Y", 60, 30);
  d.mm = *d.dag.AddMatMul(d.X, d.Y);
  d.u = *d.dag.AddUnary(UnaryFn::kSquare, d.mm);
  d.dag.MarkOutput(d.u);
  return d;
}

TEST(VerifyDagTest, CleanDagHasNoDiagnostics) {
  SmallDag d = MakeSmallDag();
  EXPECT_TRUE(PlanVerifier().VerifyDag(d.dag).empty());
}

TEST(VerifyDagTest, InputIdRule) {
  SmallDag d = MakeSmallDag();
  // A node consuming itself violates topological wiring.
  d.dag.mutable_node_for_test(d.u)->inputs = {d.u};
  ExpectExactly(PlanVerifier().VerifyDag(d.dag), rules::kDagInputId);
}

TEST(VerifyDagTest, ArityRule) {
  SmallDag d = MakeSmallDag();
  d.dag.mutable_node_for_test(d.u)->inputs = {d.mm, d.mm};
  ExpectExactly(PlanVerifier().VerifyDag(d.dag), rules::kDagArity);
}

TEST(VerifyDagTest, OperandKindRule) {
  Dag dag;
  const NodeId x = *dag.AddInput("X", 40, 60);
  const NodeId y = *dag.AddInput("Y", 60, 30);
  const NodeId s = *dag.AddScalar(2.0);  // earlier than mm: wiring stays topological
  const NodeId mm = *dag.AddMatMul(x, y);
  dag.MarkOutput(mm);
  dag.mutable_node_for_test(mm)->inputs = {x, s};
  ExpectExactly(PlanVerifier().VerifyDag(dag), rules::kDagOperandKind);
}

TEST(VerifyDagTest, ShapeRule) {
  SmallDag d = MakeSmallDag();
  d.dag.mutable_node_for_test(d.u)->rows = 99;
  ExpectExactly(PlanVerifier().VerifyDag(d.dag), rules::kDagShape);
}

TEST(VerifyDagTest, ShapeRuleCatchesIncompatibleOperands) {
  SmallDag d = MakeSmallDag();
  // Rewire the matmul to inner-incompatible operands (X: 40x60, X: 40x60).
  d.dag.mutable_node_for_test(d.mm)->inputs = {d.X, d.X};
  const auto diags = PlanVerifier().VerifyDag(d.dag);
  // The matmul re-derivation fails, and downstream nnz estimates shift;
  // the shape rule must be among the findings on the matmul node.
  EXPECT_GE(CountRule(diags, rules::kDagShape), 1) << FormatDiagnostics(diags);
}

TEST(VerifyDagTest, NnzBoundsRule) {
  SmallDag d = MakeSmallDag();
  d.dag.mutable_node_for_test(d.u)->nnz = 40 * 30 + 5;
  ExpectExactly(PlanVerifier().VerifyDag(d.dag), rules::kDagNnz);
}

TEST(VerifyDagTest, SparsityRule) {
  SmallDag d = MakeSmallDag();
  // In-bounds but inconsistent with the re-derived estimate.
  d.dag.mutable_node_for_test(d.u)->nnz = 7;
  ExpectExactly(PlanVerifier().VerifyDag(d.dag), rules::kDagSparsity);
}

// --- Plan rules -----------------------------------------------------------

TEST(VerifyPlanTest, CleanPlanHasNoDiagnostics) {
  SmallDag d = MakeSmallDag();
  PartialPlan plan(&d.dag, {d.mm, d.u}, d.u);
  EXPECT_TRUE(PlanVerifier().VerifyPlan(d.dag, plan).empty());
}

TEST(VerifyPlanTest, RootRule) {
  SmallDag d = MakeSmallDag();
  PartialPlan plan =
      PartialPlan::UncheckedForTest(&d.dag, {d.mm}, /*root=*/d.u);
  ExpectExactly(PlanVerifier().VerifyPlan(d.dag, plan), rules::kPlanRoot);
}

TEST(VerifyPlanTest, MemberIdRule) {
  SmallDag d = MakeSmallDag();
  PartialPlan plan = PartialPlan::UncheckedForTest(&d.dag, {d.u, 999}, d.u);
  ExpectExactly(PlanVerifier().VerifyPlan(d.dag, plan),
                rules::kPlanMemberId);
}

TEST(VerifyPlanTest, MemberKindRule) {
  SmallDag d = MakeSmallDag();
  // The leaf X fused into the region.
  PartialPlan plan =
      PartialPlan::UncheckedForTest(&d.dag, {d.X, d.mm, d.u}, d.u);
  ExpectExactly(PlanVerifier().VerifyPlan(d.dag, plan),
                rules::kPlanMemberKind);
}

TEST(VerifyPlanTest, ConnectedRule) {
  Dag dag;
  const NodeId x = *dag.AddInput("X", 8, 8);
  const NodeId y = *dag.AddInput("Y", 8, 8);
  const NodeId u1 = *dag.AddUnary(UnaryFn::kSquare, x);
  const NodeId u2 = *dag.AddUnary(UnaryFn::kSquare, y);
  dag.MarkOutput(u1);
  dag.MarkOutput(u2);
  PartialPlan plan = PartialPlan::UncheckedForTest(&dag, {u1, u2}, u2);
  ExpectExactly(PlanVerifier().VerifyPlan(dag, plan),
                rules::kPlanConnected);
}

TEST(VerifyPlanTest, InternalTerminationRule) {
  Dag dag;
  const NodeId x = *dag.AddInput("X", 8, 8);
  const NodeId u1 = *dag.AddUnary(UnaryFn::kSquare, x);
  const NodeId agg = *dag.AddUnaryAgg(AggFn::kSum, AggAxis::kAll, u1);
  const NodeId u2 = *dag.AddUnary(UnaryFn::kSquare, agg);
  dag.MarkOutput(u2);
  // The shuffle aggregation fused below the root.
  PartialPlan plan(&dag, {u1, agg, u2}, u2);
  ExpectExactly(PlanVerifier().VerifyPlan(dag, plan),
                rules::kPlanInternalTermination);
}

TEST(VerifyPlanTest, NoMatMulRule) {
  Dag dag;
  const NodeId x = *dag.AddInput("X", 8, 8);
  const NodeId u1 = *dag.AddUnary(UnaryFn::kSquare, x);
  dag.MarkOutput(u1);
  PartialPlan plan(&dag, {u1}, u1);
  EXPECT_TRUE(PlanVerifier().VerifyPlan(dag, plan).empty());
  ExpectExactly(
      PlanVerifier().VerifyPlan(dag, plan, /*require_matmul=*/true),
      rules::kPlanNoMatMul);
}

TEST(VerifyPlanTest, SubspaceUniqueRule) {
  Dag dag;
  const NodeId s = *dag.AddInput("S", 16, 16);
  const NodeId shared = *dag.AddUnary(UnaryFn::kAbs, s);
  const NodeId l = *dag.AddUnary(UnaryFn::kSquare, shared);
  const NodeId r = *dag.AddUnary(UnaryFn::kRelu, shared);
  const NodeId mm = *dag.AddMatMul(l, r);
  dag.MarkOutput(mm);
  // `shared` feeds both matmul operands: it cannot live in one subspace.
  PartialPlan plan =
      PartialPlan::UncheckedForTest(&dag, {shared, l, r, mm}, mm);
  const auto diags = PlanVerifier().VerifyPlan(dag, plan);
  EXPECT_EQ(CountRule(diags, rules::kPlanSubspaceUnique), 1)
      << FormatDiagnostics(diags);
  // The shared node is also a multi-consumer termination operator; that
  // companion finding is expected and correct.
  EXPECT_EQ(CountRule(diags, rules::kPlanInternalTermination), 1)
      << FormatDiagnostics(diags);
}

TEST(VerifyPlanTest, SubspaceAxesRule) {
  SmallDag d = MakeSmallDag();
  PartialPlan plan(&d.dag, {d.mm}, d.mm);
  EXPECT_TRUE(PlanVerifier().VerifyPlan(d.dag, plan).empty());
  // Corrupt the matmul's i extent: VerifyPlan (which does not re-run the
  // DAG pass) must still see the i×j×k inconsistency.
  d.dag.mutable_node_for_test(d.mm)->rows = 99;
  ExpectExactly(PlanVerifier().VerifyPlan(d.dag, plan),
                rules::kPlanSubspaceAxes);
}

TEST(VerifyPlanTest, SubspaceAxesRuleKAxis) {
  SmallDag d = MakeSmallDag();
  PartialPlan plan(&d.dag, {d.mm}, d.mm);
  d.dag.mutable_node_for_test(d.Y)->rows = 61;  // k disagrees with lhs
  ExpectExactly(PlanVerifier().VerifyPlan(d.dag, plan),
                rules::kPlanSubspaceAxes);
}

// --- Plan-set rules -------------------------------------------------------

TEST(VerifyPlanSetTest, CoverageRule) {
  // u2 is an operator no plan covers; the output (u1) IS a root, so only
  // the coverage rule can fire — and only when coverage is required.
  Dag dag;
  const NodeId x = *dag.AddInput("X", 8, 8);
  const NodeId u1 = *dag.AddUnary(UnaryFn::kSquare, x);
  const NodeId u2 = *dag.AddUnary(UnaryFn::kAbs, u1);
  (void)u2;
  dag.MarkOutput(u1);
  FusionPlanSet partial;
  partial.plans.emplace_back(&dag, std::vector<NodeId>{u1}, u1);
  EXPECT_TRUE(PlanVerifier()
                  .VerifyPlanSet(dag, partial, /*require_coverage=*/false)
                  .empty());
  ExpectExactly(
      PlanVerifier().VerifyPlanSet(dag, partial, /*require_coverage=*/true),
      rules::kPlanSetCoverage);
}

TEST(VerifyPlanSetTest, OverlapRule) {
  SmallDag d = MakeSmallDag();
  FusionPlanSet set;
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.mm, d.u}, d.u);
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.mm}, d.mm);
  ExpectExactly(PlanVerifier().VerifyPlanSet(d.dag, set),
                rules::kPlanSetOverlap);
}

TEST(VerifyPlanSetTest, OutputRule) {
  SmallDag d = MakeSmallDag();
  // The output u is fused as an internal member of a larger region in a
  // corrupted set whose root is the matmul: u never materializes.
  FusionPlanSet set;
  set.plans.push_back(
      PartialPlan::UncheckedForTest(&d.dag, {d.mm, d.u}, d.mm));
  const auto diags = PlanVerifier().VerifyPlanSet(d.dag, set);
  ExpectExactly(diags, rules::kPlanSetOutput);
}

// --- Stage-graph rules ----------------------------------------------------

struct ChainDag {
  Dag dag;
  NodeId x, u1, u2;
};

ChainDag MakeChainDag() {
  ChainDag d;
  d.x = *d.dag.AddInput("X", 8, 8);
  d.u1 = *d.dag.AddUnary(UnaryFn::kSquare, d.x);
  d.u2 = *d.dag.AddUnary(UnaryFn::kAbs, d.u1);
  d.dag.MarkOutput(d.u2);
  return d;
}

TEST(VerifyStageGraphTest, CleanGraphHasNoDiagnostics) {
  ChainDag d = MakeChainDag();
  FusionPlanSet set;
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u1}, d.u1);
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u2}, d.u2);
  EXPECT_TRUE(PlanVerifier().VerifyStageGraph(d.dag, set).empty());
}

TEST(VerifyStageGraphTest, OrderRule) {
  ChainDag d = MakeChainDag();
  FusionPlanSet set;
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u2}, d.u2);
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u1}, d.u1);
  ExpectExactly(PlanVerifier().VerifyStageGraph(d.dag, set),
                rules::kStageOrder);
}

TEST(VerifyStageGraphTest, MissingInputRule) {
  ChainDag d = MakeChainDag();
  FusionPlanSet set;
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u2}, d.u2);
  ExpectExactly(PlanVerifier().VerifyStageGraph(d.dag, set),
                rules::kStageMissingInput);
}

TEST(VerifyStageGraphTest, DuplicateRootRule) {
  ChainDag d = MakeChainDag();
  FusionPlanSet set;
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u1}, d.u1);
  set.plans.emplace_back(&d.dag, std::vector<NodeId>{d.u1}, d.u1);
  const auto diags = PlanVerifier().VerifyStageGraph(d.dag, set);
  ExpectExactly(diags, rules::kStageDuplicateRoot);
}

// --- Cuboid rules ---------------------------------------------------------

struct CuboidFixture {
  Dag dag;
  ClusterConfig config;
  NodeId mm = kInvalidNode;

  CuboidFixture() {
    config.block_size = 10;
    const NodeId a = *dag.AddInput("A", 40, 60);
    const NodeId b = *dag.AddInput("B", 60, 30);
    mm = *dag.AddMatMul(a, b);  // grid 4x3 with K=6
    dag.MarkOutput(mm);
  }
};

TEST(VerifyCuboidTest, CleanCuboidHasNoDiagnostics) {
  CuboidFixture f;
  CostModel model(f.config);
  PartialPlan plan(&f.dag, {f.mm}, f.mm);
  EXPECT_TRUE(
      PlanVerifier(&model).VerifyCuboid(plan, Cuboid{4, 3, 2}).empty());
}

TEST(VerifyCuboidTest, BoundsRule) {
  CuboidFixture f;
  CostModel model(f.config);
  PartialPlan plan(&f.dag, {f.mm}, f.mm);
  ExpectExactly(PlanVerifier(&model).VerifyCuboid(plan, Cuboid{5, 3, 1}),
                rules::kCuboidBounds);
  ExpectExactly(PlanVerifier(&model).VerifyCuboid(plan, Cuboid{0, 1, 1}),
                rules::kCuboidBounds);
}

TEST(VerifyCuboidTest, KSplitRule) {
  CuboidFixture f;
  // A transpose in the O-space reshapes the 40x30 matmul output, so the
  // common dimension cannot be split.
  const NodeId t = *f.dag.AddTranspose(f.mm);
  f.dag.MarkOutput(t);
  CostModel model(f.config);
  PartialPlan plan(&f.dag, {f.mm, t}, t);
  EXPECT_TRUE(
      PlanVerifier(&model).VerifyCuboid(plan, Cuboid{4, 3, 1}).empty());
  ExpectExactly(PlanVerifier(&model).VerifyCuboid(plan, Cuboid{4, 3, 2}),
                rules::kCuboidKSplit);
}

TEST(VerifyCuboidTest, MemoryRule) {
  CuboidFixture f;
  f.config.task_memory_budget = 1;  // nothing fits
  CostModel model(f.config);
  PartialPlan plan(&f.dag, {f.mm}, f.mm);
  ExpectExactly(PlanVerifier(&model).VerifyCuboid(plan, Cuboid{1, 1, 1}),
                rules::kCuboidMemory);
}

// --- Engine integration ---------------------------------------------------

TEST(EngineVerifyTest, CorruptedDagFailsTheRunWithDiagnostics) {
  GnmfQuery q = BuildGnmf(4000, 1800, 200, /*x_nnz=*/400000);
  EngineOptions options;
  options.analytic = true;
  Engine engine = MakeEngine(options);

  FusionPlanSet plans = engine.MakePlans(q.dag);
  ASSERT_TRUE(plans.diagnostics.empty())
      << FormatDiagnostics(plans.diagnostics);

  // Corrupt the inferred shape of the U-side main matmul after planning.
  q.dag.mutable_node_for_test(q.a1)->rows = 12345;
  auto run = CompileAndExecute(engine, q.dag, plans, {});
  EXPECT_EQ(run.report.status.code(), StatusCode::kInternal)
      << run.report.status.ToString();
  EXPECT_FALSE(run.report.verifier_diagnostics.empty());
  EXPECT_GE(CountRule(run.report.verifier_diagnostics, rules::kDagShape), 1)
      << FormatDiagnostics(run.report.verifier_diagnostics);
  EXPECT_TRUE(run.outputs.empty());
}

TEST(EngineVerifyTest, VerifyOffSkipsTheGate) {
  // Verification disabled: a clean run executes with no diagnostics and
  // no verifier work at all.
  GnmfQuery q = BuildGnmf(4000, 1800, 200, /*x_nnz=*/400000);
  EngineOptions options;
  options.analytic = true;
  options.verify = VerifyLevel::kOff;
  Engine engine = MakeEngine(options);
  FusionPlanSet plans = engine.MakePlans(q.dag);
  EXPECT_TRUE(plans.diagnostics.empty());
  auto run = CompileAndExecute(engine, q.dag, plans, {});
  EXPECT_TRUE(run.report.ok()) << run.report.status.ToString();
  EXPECT_TRUE(run.report.verifier_diagnostics.empty());
}

TEST(EngineVerifyTest, ParanoidLevelPassesOnValidQueries) {
  GnmfQuery q = BuildGnmf(4000, 1800, 200, /*x_nnz=*/400000);
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe, SystemMode::kTensorFlow}) {
    EngineOptions options;
    options.system = mode;
    options.analytic = true;
    options.verify = VerifyLevel::kParanoid;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, {});
    EXPECT_TRUE(run.report.ok())
        << SystemModeName(mode) << ": " << run.report.status.ToString();
    EXPECT_TRUE(run.report.verifier_diagnostics.empty())
        << FormatDiagnostics(run.report.verifier_diagnostics);
  }
}

TEST(EngineVerifyTest, CfgCandidatesAreVerifiedInMakePlans) {
  GnmfQuery q = BuildGnmf(4000, 1800, 200, /*x_nnz=*/400000);
  EngineOptions options;
  options.analytic = true;
  Engine engine = MakeEngine(options);
  FusionPlanSet plans = engine.MakePlans(q.dag);
  EXPECT_TRUE(plans.diagnostics.empty())
      << FormatDiagnostics(plans.diagnostics);
  EXPECT_FALSE(plans.plans.empty());
}

}  // namespace
}  // namespace fuseme
