// Paranoid-level verification sweep: every workload query, a batch of
// parsed expressions, and a pile of random DAGs run through every system
// policy with VerifyLevel::kParanoid — none may produce a verifier
// diagnostic.  Legitimate resource failures (O.O.M./T.O. table cells) are
// allowed; kInternal (the verifier's failure code) never is.

#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/engine.h"
#include "ir/parser.h"
#include "verify/plan_verifier.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr SystemMode kAllModes[] = {
    SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
    SystemMode::kDistMe, SystemMode::kTensorFlow};

/// Runs `dag` analytically under every system policy at kParanoid and
/// asserts the verifier stayed silent.  Also checks each mode's plan set
/// directly against the standalone PlanVerifier.
void SweepDag(const Dag& dag, const std::string& label,
              ClusterConfig cluster = {}) {
  for (SystemMode mode : kAllModes) {
    EngineOptions options;
    options.system = mode;
    options.cluster = cluster;
    options.analytic = true;
    options.verify = VerifyLevel::kParanoid;
    Engine engine = MakeEngine(options);

    FusionPlanSet plans = engine.MakePlans(dag);
    EXPECT_TRUE(plans.diagnostics.empty())
        << label << " / " << SystemModeName(mode) << ": "
        << FormatDiagnostics(plans.diagnostics);

    PlanVerifier verifier(&engine.cost_model());
    const auto diags = verifier.Verify(dag, plans, VerifyLevel::kParanoid);
    EXPECT_TRUE(diags.empty()) << label << " / " << SystemModeName(mode)
                               << ": " << FormatDiagnostics(diags);

    auto run = CompileAndExecute(engine, dag, {});
    EXPECT_TRUE(run.report.verifier_diagnostics.empty())
        << label << " / " << SystemModeName(mode) << ": "
        << FormatDiagnostics(run.report.verifier_diagnostics);
    // O.O.M./T.O. are legitimate policy outcomes at paper scale; an
    // Internal status would mean the verifier (or the engine) tripped.
    EXPECT_NE(run.report.status.code(), StatusCode::kInternal)
        << label << " / " << SystemModeName(mode) << ": "
        << run.report.status.ToString();
  }
}

TEST(VerifierSweepTest, WorkloadQueries) {
  SweepDag(BuildGnmf(48000, 17700, 200, 1004805).dag, "gnmf-amazon");
  SweepDag(BuildGnmf(4000, 1800, 200, 400000).dag, "gnmf-small");
  SweepDag(BuildGnmf(4000, 1800, 200, 400000, /*matrix_chain_opt=*/false)
               .dag,
           "gnmf-no-chain-opt");
  SweepDag(BuildNmfPattern(48000, 17700, 200, 1004805).dag, "nmf-pattern");
  SweepDag(BuildAlsLoss(48000, 17700, 200, 1004805).dag, "als-loss");
  SweepDag(BuildKlLoss(48000, 17700, 200, 1004805).dag, "kl-loss");
  SweepDag(BuildPcaPattern(48000, 1000).dag, "pca-pattern");
  SweepDag(BuildFig1c(48000, 17700, 200, 1004805).dag, "fig1c");
}

TEST(VerifierSweepTest, ParsedExpressions) {
  const std::map<std::string, MatrixShape> symbols = {
      {"X", {4000, 1800, 400000}},
      {"U", {4000, 200, -1}},
      {"V", {200, 1800, -1}},
  };
  const std::vector<std::string> queries = {
      "X * log(U %*% V + 1e-8)",
      "sum((X != 0) * (X - U %*% V)^2)",
      "t(U) %*% (X * (U %*% V))",
      "colSums(X * (U %*% V)) + t(rowSums(t(X) * t(U %*% V)))",
      "(U %*% V) * (U %*% V != 0)",
  };
  for (const std::string& text : queries) {
    auto parsed = ParseQuery(text, symbols);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    SweepDag(*parsed->dag, text);
  }
}

// --- Random metadata-only DAGs -------------------------------------------

/// Random valid DAG builder (metadata only — analytic mode synthesizes
/// descriptors for the leaves, so no numeric data is needed).
Dag MakeRandomDag(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Dag dag;
  struct Entry {
    NodeId id;
    std::int64_t rows, cols;
  };
  std::vector<Entry> pool;

  const int num_leaves = static_cast<int>(pick(2, 4));
  std::vector<std::int64_t> dims = {40, 56, 96, 130, 72};
  for (int i = 0; i < num_leaves; ++i) {
    const std::int64_t rows = dims[pick(0, 4)];
    const std::int64_t cols = dims[pick(0, 4)];
    const bool sparse = pick(0, 2) == 0;
    const NodeId id = *dag.AddInput("L" + std::to_string(i), rows, cols,
                                    sparse ? rows * cols / 8 : -1);
    pool.push_back({id, rows, cols});
  }

  const int num_ops = static_cast<int>(pick(6, 14));
  for (int i = 0; i < num_ops; ++i) {
    const int kind = static_cast<int>(pick(0, 5));
    const Entry a = pool[pick(0, static_cast<std::int64_t>(pool.size()) - 1)];
    Result<NodeId> made = Status::Internal("skip");
    switch (kind) {
      case 0: {
        const UnaryFn fns[] = {UnaryFn::kSquare, UnaryFn::kAbs,
                               UnaryFn::kSigmoid, UnaryFn::kRelu,
                               UnaryFn::kNotZero};
        made = dag.AddUnary(fns[pick(0, 4)], a.id);
        break;
      }
      case 1: {
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.rows && e.cols == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b = compatible[pick(
            0, static_cast<std::int64_t>(compatible.size()) - 1)];
        const BinaryFn fns[] = {BinaryFn::kAdd, BinaryFn::kSub,
                                BinaryFn::kMul, BinaryFn::kMin,
                                BinaryFn::kMax};
        made = dag.AddBinary(fns[pick(0, 4)], a.id, b.id);
        break;
      }
      case 2: {
        const NodeId s = *dag.AddScalar(0.25 + 0.5 * pick(0, 3));
        made = dag.AddBinary(
            pick(0, 1) == 0 ? BinaryFn::kMul : BinaryFn::kAdd, a.id, s);
        break;
      }
      case 3: {
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b = compatible[pick(
            0, static_cast<std::int64_t>(compatible.size()) - 1)];
        made = dag.AddMatMul(a.id, b.id);
        break;
      }
      case 4:
        made = dag.AddTranspose(a.id);
        break;
      case 5: {
        const AggAxis axes[] = {AggAxis::kAll, AggAxis::kRow, AggAxis::kCol};
        made = dag.AddUnaryAgg(AggFn::kSum, axes[pick(0, 2)], a.id);
        break;
      }
    }
    if (!made.ok()) continue;
    const Node& n = dag.node(*made);
    pool.push_back({*made, n.rows, n.cols});
  }

  for (const Entry& e : pool) {
    if (dag.node(e.id).kind == OpKind::kInput) continue;
    if (dag.Consumers(e.id).empty()) dag.MarkOutput(e.id);
  }
  return dag;
}

class VerifierRandomSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(VerifierRandomSweep, NoDiagnosticsOnValidDags) {
  Dag dag = MakeRandomDag(GetParam());
  if (dag.outputs().empty()) GTEST_SKIP() << "degenerate query";
  ClusterConfig small;
  small.num_nodes = 2;
  small.tasks_per_node = 3;
  small.block_size = 16;
  SweepDag(dag, "seed-" + std::to_string(GetParam()), small);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace fuseme
