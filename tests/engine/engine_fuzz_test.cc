// Differential fuzzing: random query DAGs executed under every system
// policy (different planners + different physical operators) must all
// agree with the single-node oracle bit-for-bit (up to float accumulation
// order).  This is the broadest correctness net in the suite: it covers
// plan generation, space classification, cuboid/broadcast execution,
// sparsity exploitation, aggregation roots, and multi-output queries at
// once.

#include <random>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "matrix/generators.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

struct RandomQuery {
  Dag dag;
  std::map<NodeId, DenseMatrix> dense;
  std::map<NodeId, BlockedMatrix> blocked;
};

/// Builds a random valid DAG with bounded-magnitude values (operations
/// are restricted to a numerically tame set: no division, no log).
RandomQuery MakeRandomQuery(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  RandomQuery q;
  struct Entry {
    NodeId id;
    std::int64_t rows, cols;
  };
  std::vector<Entry> pool;

  // 2-4 leaf matrices with dimensions that are not block-aligned on
  // purpose (ragged tiles must work everywhere).
  const int num_leaves = static_cast<int>(pick(2, 4));
  std::vector<std::int64_t> dims = {10, 12, 17, 24, 9};
  for (int i = 0; i < num_leaves; ++i) {
    const std::int64_t rows = dims[pick(0, 4)];
    const std::int64_t cols = dims[pick(0, 4)];
    const bool sparse = pick(0, 2) == 0;
    DenseMatrix value =
        sparse ? RandomSparse(rows, cols, 0.12, seed * 31 + i, 0.3, 1.2)
                     .ToDense()
               : RandomDense(rows, cols, seed * 31 + i, 0.3, 1.2);
    const SparseMatrix as_sparse = SparseMatrix::FromDense(value);
    // Declare the bound value's own nnz: Execute refuses an input whose
    // sparsity class differs from the one the plan was compiled for.
    NodeId id = *q.dag.AddInput("L" + std::to_string(i), rows, cols,
                                sparse ? as_sparse.nnz() : -1);
    q.dense[id] = value;
    q.blocked[id] = sparse ? BlockedMatrix::FromSparse(as_sparse, kBs)
                           : BlockedMatrix::FromDense(value, kBs);
    pool.push_back({id, rows, cols});
  }

  // 6-14 random operators.
  const int num_ops = static_cast<int>(pick(6, 14));
  for (int i = 0; i < num_ops; ++i) {
    const int kind = static_cast<int>(pick(0, 5));
    const Entry a = pool[pick(0, static_cast<std::int64_t>(pool.size()) - 1)];
    Result<NodeId> made = Status::Internal("skip");
    switch (kind) {
      case 0: {  // unary (value-bounded choices only)
        const UnaryFn fns[] = {UnaryFn::kSquare, UnaryFn::kAbs,
                               UnaryFn::kSigmoid, UnaryFn::kRelu,
                               UnaryFn::kNotZero};
        made = q.dag.AddUnary(fns[pick(0, 4)], a.id);
        break;
      }
      case 1: {  // binary with a shape-compatible partner
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.rows && e.cols == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b =
            compatible[pick(0, static_cast<std::int64_t>(
                                   compatible.size()) - 1)];
        const BinaryFn fns[] = {BinaryFn::kAdd, BinaryFn::kSub,
                                BinaryFn::kMul, BinaryFn::kMin,
                                BinaryFn::kMax};
        made = q.dag.AddBinary(fns[pick(0, 4)], a.id, b.id);
        break;
      }
      case 2: {  // binary with scalar
        NodeId s = *q.dag.AddScalar(0.25 + 0.5 * pick(0, 3));
        made = q.dag.AddBinary(pick(0, 1) == 0 ? BinaryFn::kMul
                                               : BinaryFn::kAdd,
                               a.id, s);
        break;
      }
      case 3: {  // matmul with an inner-compatible partner
        std::vector<Entry> compatible;
        for (const Entry& e : pool) {
          if (e.rows == a.cols) compatible.push_back(e);
        }
        if (compatible.empty()) continue;
        const Entry b =
            compatible[pick(0, static_cast<std::int64_t>(
                                   compatible.size()) - 1)];
        made = q.dag.AddMatMul(a.id, b.id);
        break;
      }
      case 4:  // transpose
        made = q.dag.AddTranspose(a.id);
        break;
      case 5: {  // aggregation
        const AggAxis axes[] = {AggAxis::kAll, AggAxis::kRow, AggAxis::kCol};
        made = q.dag.AddUnaryAgg(AggFn::kSum, axes[pick(0, 2)], a.id);
        break;
      }
    }
    if (!made.ok()) continue;
    const Node& n = q.dag.node(*made);
    pool.push_back({*made, n.rows, n.cols});
  }

  // Outputs: every sink operator (no consumers) that is not a leaf.
  for (const Entry& e : pool) {
    const Node& n = q.dag.node(e.id);
    if (n.kind == OpKind::kInput) continue;
    if (q.dag.Consumers(e.id).empty()) q.dag.MarkOutput(e.id);
  }
  return q;
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllSystemsMatchOracle) {
  RandomQuery q = MakeRandomQuery(GetParam());
  if (q.dag.outputs().empty()) GTEST_SKIP() << "degenerate query";

  // Oracle values for every output.
  std::map<NodeId, DenseMatrix> expected;
  for (NodeId out : q.dag.outputs()) {
    auto ref = ReferenceEval(q.dag, out, q.dense);
    ASSERT_TRUE(ref.ok()) << ref.status();
    expected[out] = *ref;
  }

  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe, SystemMode::kTensorFlow}) {
    options.system = mode;
    Engine engine = MakeEngine(options);
    auto run = CompileAndExecute(engine, q.dag, q.blocked);
    ASSERT_TRUE(run.report.ok())
        << SystemModeName(mode) << " seed " << GetParam() << ": "
        << run.report.status;
    for (NodeId out : q.dag.outputs()) {
      ASSERT_TRUE(run.outputs.contains(out))
          << SystemModeName(mode) << " missing output v" << out;
      EXPECT_LE(DenseMatrix::MaxAbsDiff(
                    run.outputs.at(out).blocks().ToDense(), expected[out]),
                1e-7)
          << SystemModeName(mode) << " seed " << GetParam() << " output v"
          << out;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<std::uint64_t>(1, 33));

/// A sparse mask X (density ≤ 0.1) times a random element-wise chain over
/// one matrix product — the shape the evaluator's masked program runs.
struct MaskedQuery {
  RandomQuery q;
  NodeId root = kInvalidNode;
  std::vector<NodeId> members;  // every operator: one fused plan
};

/// Builds X * chain(P) or chain(P) * X, where P is U·Vᵀ, Uᵀ·V or (V·Uᵀ)ᵀ
/// and the chain keeps every value finite: log(abs(x) + c),
/// x / (abs(y) + 1), sqrt(abs(x)), and scalar scaling.  `split_k` shapes
/// the query for a k-split: a long common dimension, so U and V dominate
/// task memory, and never (V·Uᵀ)ᵀ, whose O-space reshapes the product.
MaskedQuery MakeMaskedChainQuery(std::uint64_t seed, bool split_k = false) {
  std::mt19937_64 rng(seed);
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  MaskedQuery m;
  Dag& dag = m.q.dag;
  const std::int64_t dims[] = {9, 10, 17, 24};
  const std::int64_t i = dims[pick(0, 3)];
  const std::int64_t j = dims[pick(0, 3)];
  // Two or more k-blocks; five or more for a k-split.
  const std::int64_t k = split_k ? 33 + pick(0, 15) : 9 + pick(0, 15);
  auto input = [&](const char* name, std::int64_t rows, std::int64_t cols,
                   bool sparse) {
    const std::uint64_t value_seed = seed * 31 + m.q.dense.size();
    const DenseMatrix value =
        sparse ? RandomSparse(rows, cols, pick(0, 1) == 0 ? 0.05 : 0.1,
                              value_seed, 0.3, 1.2)
                     .ToDense()
               : RandomDense(rows, cols, value_seed, 0.3, 1.2);
    const SparseMatrix as_sparse = SparseMatrix::FromDense(value);
    const NodeId id =
        *dag.AddInput(name, rows, cols, sparse ? as_sparse.nnz() : -1);
    m.q.dense[id] = value;
    m.q.blocked[id] = sparse ? BlockedMatrix::FromSparse(as_sparse, kBs)
                             : BlockedMatrix::FromDense(value, kBs);
    return id;
  };
  auto op = [&](Result<NodeId> made) {
    m.members.push_back(*made);
    return *made;
  };

  const NodeId x = input("X", i, j, /*sparse=*/true);
  NodeId mm = kInvalidNode;
  bool transposed = false;
  switch (pick(0, split_k ? 1 : 2)) {
    case 0: {  // U·Vᵀ
      const NodeId u = input("U", i, k, false);
      const NodeId v = input("V", j, k, false);
      mm = op(dag.AddMatMul(u, op(dag.AddTranspose(v))));
      break;
    }
    case 1: {  // Uᵀ·V
      const NodeId u = input("U", k, i, false);
      const NodeId v = input("V", k, j, false);
      mm = op(dag.AddMatMul(op(dag.AddTranspose(u)), v));
      break;
    }
    default: {  // (V·Uᵀ)ᵀ: the product itself under an in-plan transpose
      const NodeId u = input("U", i, k, false);
      const NodeId v = input("V", j, k, false);
      mm = op(dag.AddMatMul(v, op(dag.AddTranspose(u))));
      transposed = true;
      break;
    }
  }
  NodeId chain = transposed ? op(dag.AddTranspose(mm)) : mm;
  const int links = static_cast<int>(pick(1, 4));
  for (int l = 0; l < links; ++l) {
    const std::string side_name = "Y" + std::to_string(l);
    switch (pick(0, 3)) {
      case 0: {  // log(abs(x) + c)
        const NodeId c = *dag.AddScalar(0.5 + 0.25 * pick(0, 3));
        const NodeId abs = op(dag.AddUnary(UnaryFn::kAbs, chain));
        chain = op(dag.AddUnary(UnaryFn::kLog,
                                op(dag.AddBinary(BinaryFn::kAdd, abs, c))));
        break;
      }
      case 1: {  // x / (abs(y) + 1), y the mask or a dense side input
        const NodeId y =
            pick(0, 1) == 0 ? x : input(side_name.c_str(), i, j, false);
        const NodeId one = *dag.AddScalar(1.0);
        const NodeId den = op(dag.AddBinary(
            BinaryFn::kAdd, op(dag.AddUnary(UnaryFn::kAbs, y)), one));
        chain = op(dag.AddBinary(BinaryFn::kDiv, chain, den));
        break;
      }
      case 2:  // sqrt(abs(x))
        chain = op(dag.AddUnary(UnaryFn::kSqrt,
                                op(dag.AddUnary(UnaryFn::kAbs, chain))));
        break;
      default: {  // scalar scaling, the scalar on either side
        const NodeId s = *dag.AddScalar(0.25 + 0.5 * pick(0, 3));
        chain = op(pick(0, 1) == 0 ? dag.AddBinary(BinaryFn::kMul, chain, s)
                                   : dag.AddBinary(BinaryFn::kMul, s, chain));
        break;
      }
    }
  }
  m.root = op(pick(0, 1) == 0 ? dag.AddBinary(BinaryFn::kMul, x, chain)
                              : dag.AddBinary(BinaryFn::kMul, chain, x));
  dag.MarkOutput(m.root);
  return m;
}

EngineOptions FuzzOptions(SystemMode mode) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  return options;
}

class MaskedChainFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskedChainFuzz, AllSystemsMatchOracle) {
  const MaskedQuery m = MakeMaskedChainQuery(GetParam());
  auto expected = ReferenceEval(m.q.dag, m.root, m.q.dense);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe, SystemMode::kTensorFlow}) {
    SCOPED_TRACE(std::string(SystemModeName(mode)) + " seed " +
                 std::to_string(GetParam()));
    auto engine = Engine::Create(FuzzOptions(mode));
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto compiled = engine->Compile(m.q.dag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const Engine::RunResult run = engine->Execute(*compiled, m.q.blocked);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_LE(DenseMatrix::MaxAbsDiff(
                  run.outputs.at(m.root).blocks().ToDense(), *expected),
              1e-7);
  }
}

TEST_P(MaskedChainFuzz, SplitKIsThreadInvariant) {
  // The whole query as one plan, forced through cpmm with a budget that
  // admits no R = 1 cuboid: phase 1 masks the partial products, phase 2
  // runs the chain over the injected sums.
  const MaskedQuery m = MakeMaskedChainQuery(GetParam(), /*split_k=*/true);
  auto expected = ReferenceEval(m.q.dag, m.root, m.q.dense);
  ASSERT_TRUE(expected.ok()) << expected.status();
  FusionPlanSet full;
  full.plans.emplace_back(&m.q.dag, m.members, m.root);
  EngineOptions options = FuzzOptions(SystemMode::kFuseMe);
  {
    auto probe = Engine::Create(options);
    ASSERT_TRUE(probe.ok()) << probe.status();
    options.cluster.task_memory_budget = static_cast<std::int64_t>(
        probe->cost_model().MemEst(Cuboid{1, 1, 1}, full.plans[0])) - 1;
  }
  std::vector<Engine::RunResult> runs;
  for (int threads : {1, 4}) {
    options.cluster.local_threads = threads;
    auto engine = Engine::Create(options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    auto compiled =
        engine->CompileWithPlans(m.q.dag, full, OperatorKind::kCpmm);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    runs.push_back(engine->Execute(*compiled, m.q.blocked));
    const Engine::RunResult& run = runs.back();
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_EQ(run.report.telemetry.size(), 1u);
    EXPECT_GT(run.report.telemetry[0].predicted.cuboid.R, 1);
    EXPECT_LE(DenseMatrix::MaxAbsDiff(
                  run.outputs.at(m.root).blocks().ToDense(), *expected),
              1e-7);
  }
  const ExecutionReport& a = runs[0].report;
  const ExecutionReport& b = runs[1].report;
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(
                runs[0].outputs.at(m.root).blocks().ToDense(),
                runs[1].outputs.at(m.root).blocks().ToDense()),
            0.0);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.consolidation_bytes, b.consolidation_bytes);
  EXPECT_EQ(a.aggregation_bytes, b.aggregation_bytes);
  EXPECT_EQ(a.max_task_memory, b.max_task_memory);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedChainFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace fuseme
