// Parallel execution must be invisible: for any thread count, real-mode
// operators produce bitwise-identical block values AND bitwise-identical
// per-stage accounting (consolidation/aggregation bytes, flops, peak task
// memory) to the serial run.  See DESIGN.md "Execution runtime".

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "ir/expr.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;

EngineOptions Options(int local_threads,
                      SystemMode mode = SystemMode::kFuseMe) {
  EngineOptions options;
  options.system = mode;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBs;
  options.cluster.task_memory_budget = 1LL << 40;
  options.cluster.local_threads = local_threads;
  return options;
}

void ExpectIdenticalRuns(const Engine::RunResult& serial,
                         const Engine::RunResult& parallel) {
  ASSERT_TRUE(serial.report.ok()) << serial.report.status;
  ASSERT_TRUE(parallel.report.ok()) << parallel.report.status;

  // Outputs: bitwise equal (MaxAbsDiff of exactly 0.0, no tolerance).
  ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
  for (const auto& [id, dm] : serial.outputs) {
    auto it = parallel.outputs.find(id);
    ASSERT_NE(it, parallel.outputs.end());
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(dm.blocks().ToDense(),
                                      it->second.blocks().ToDense()),
              0.0)
        << "output v" << id;
  }

  // Accounting: every stage statistic identical.
  const ExecutionReport& a = serial.report;
  const ExecutionReport& b = parallel.report;
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

  // The OOM degradation ladder decides from modeled budgets and the
  // deterministic accounting above, so the thread count cannot change it.
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t s = 0; s < a.telemetry.size(); ++s) {
    EXPECT_EQ(a.telemetry[s].degradations, b.telemetry[s].degradations)
        << a.telemetry[s].label;
  }
  EXPECT_EQ(a.degradations, b.degradations);
}

/// Ensures the global pool actually has workers for the parallel runs and
/// restores the previous configuration afterwards.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = GlobalParallelism();
    SetGlobalThreadPoolThreads(8);
  }
  void TearDown() override { SetGlobalThreadPoolThreads(previous_); }

 private:
  int previous_ = 1;
};

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

TEST_F(ParallelDeterminismTest, GnmfIterationAllSystems) {
  GnmfFixture f;
  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    SCOPED_TRACE(std::string(SystemModeName(mode)));
    Engine serial = MakeEngine(Options(/*local_threads=*/1, mode));
    Engine parallel = MakeEngine(Options(/*local_threads=*/8, mode));
    ExpectIdenticalRuns(CompileAndExecute(serial, f.q.dag, f.inputs),
                        CompileAndExecute(parallel, f.q.dag, f.inputs));
  }
}

TEST_F(ParallelDeterminismTest, DefaultThreadsMatchesSerial) {
  // local_threads = 0 resolves to the process default (8 here).
  GnmfFixture f;
  Engine serial = MakeEngine(Options(/*local_threads=*/1));
  Engine defaulted = MakeEngine(Options(/*local_threads=*/0));
  ExpectIdenticalRuns(CompileAndExecute(serial, f.q.dag, f.inputs),
                      CompileAndExecute(defaulted, f.q.dag, f.inputs));
}

TEST_F(ParallelDeterminismTest, ForcedOperatorsOnFusedNmfPlan) {
  // The fused X*log(U x V^T + eps) plan, forced through each physical
  // operator.  kCpmm is a (1,1,R) cuboid with R>1 — it exercises the
  // two-phase k-split path and its deterministic shuffle-merge.
  NmfPattern q = BuildNmfPattern(40, 36, 24, /*x_nnz=*/288);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(40, 36, 0.2, /*seed=*/61, 1.0, 5.0), kBs);
  inputs[q.U] =
      BlockedMatrix::FromDense(RandomDense(40, 24, /*seed=*/62, 0.5, 1.5), kBs);
  inputs[q.V] =
      BlockedMatrix::FromDense(RandomDense(36, 24, /*seed=*/63, 0.5, 1.5), kBs);
  FusionPlanSet full;
  full.plans.emplace_back(
      &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  for (OperatorKind kind : {OperatorKind::kCfo, OperatorKind::kBfo,
                            OperatorKind::kRfo, OperatorKind::kCpmm}) {
    SCOPED_TRACE("operator " + std::to_string(static_cast<int>(kind)));
    Engine serial = MakeEngine(Options(/*local_threads=*/1));
    Engine parallel = MakeEngine(Options(/*local_threads=*/8));
    // One artifact, executed by both engines: local_threads is execution-
    // local, so the same CompiledPlan is compatible with either, and the
    // results must still be bitwise identical.
    auto compiled = serial.CompileWithPlans(q.dag, full, kind);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ExpectIdenticalRuns(serial.Execute(*compiled, inputs),
                        parallel.Execute(*compiled, inputs));
  }
}

TEST_F(ParallelDeterminismTest, SkewBalancedSplitsStayDeterministic) {
  GnmfFixture f;
  EngineOptions serial_opts = Options(1);
  serial_opts.balance_sparsity = true;
  EngineOptions parallel_opts = Options(8);
  parallel_opts.balance_sparsity = true;
  Engine serial = MakeEngine(serial_opts);
  Engine parallel = MakeEngine(parallel_opts);
  ExpectIdenticalRuns(CompileAndExecute(serial, f.q.dag, f.inputs),
                      CompileAndExecute(parallel, f.q.dag, f.inputs));
}

TEST_F(ParallelDeterminismTest, GnmfSweepOverThreads) {
  // Odd and even pool widths split the work items differently; none of
  // them may show in the results or the modeled time.
  GnmfFixture f;
  Engine serial = MakeEngine(Options(/*local_threads=*/1));
  const Engine::RunResult base = CompileAndExecute(serial, f.q.dag, f.inputs);
  for (int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Engine engine = MakeEngine(Options(threads));
    ExpectIdenticalRuns(base, CompileAndExecute(engine, f.q.dag, f.inputs));
  }
}

TEST_F(ParallelDeterminismTest, ElapsedSecondsSetOnBothExecutionPaths) {
  // StageStats.elapsed_seconds is the *modeled* cluster time, and the
  // engine fills it on the real path exactly as on the analytic path.
  GnmfFixture f;
  EngineOptions real_opts = Options(/*local_threads=*/4);
  EngineOptions analytic_opts = real_opts;
  analytic_opts.analytic = true;
  Engine real_engine = MakeEngine(real_opts);
  Engine analytic_engine = MakeEngine(analytic_opts);
  const Engine::RunResult real =
      CompileAndExecute(real_engine, f.q.dag, f.inputs);
  const Engine::RunResult analytic =
      CompileAndExecute(analytic_engine, f.q.dag, f.inputs);
  ASSERT_TRUE(real.report.ok()) << real.report.status;
  ASSERT_TRUE(analytic.report.ok()) << analytic.report.status;
  for (const Engine::RunResult* run : {&real, &analytic}) {
    for (const StageStats& s : run->report.stages) {
      if (s.num_tasks > 0) {
        EXPECT_GT(s.elapsed_seconds, 0.0) << s.label;
      }
    }
  }
}

// Dense transposed operands through the engine: MatMul(T(A), B) and
// MatMul(A, T(B)) over inputs that span several 8×8 blocks with ragged
// last rows and columns, so the blocked transpose runs on full and edge
// blocks.  The inner dimension (7) fits one block, so every output block
// is a single block product and the engine's result must equal a naive
// transpose followed by the i-k-j loop bit for bit, at 1 and 4 threads,
// with identical StageStats.
class TransposedOperandsTest : public ParallelDeterminismTest {};

DenseMatrix NaiveTranspose(const DenseMatrix& x) {
  DenseMatrix t(x.cols(), x.rows());
  for (std::int64_t i = 0; i < x.rows(); ++i) {
    for (std::int64_t j = 0; j < x.cols(); ++j) t(j, i) = x(i, j);
  }
  return t;
}

// i-k-j, k ascending, a rounded multiply then a rounded add, skipping
// a(i, k) == 0: the contract of every dense GEMM variant.
DenseMatrix NaiveProduct(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::int64_t j = 0; j < b.cols(); ++j) {
        const double product = aik * b(k, j);
        c(i, j) = c(i, j) + product;
      }
    }
  }
  return c;
}

bool SameBits(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), sizeof(double) * x.size()) == 0;
}

TEST_F(TransposedOperandsTest, MatMulMatchesNaiveOracleAtAnyThreads) {
  const std::int64_t m = 21, k = 7, n = 13;
  for (bool transpose_lhs : {true, false}) {
    SCOPED_TRACE(transpose_lhs ? "MatMul(T(A), B)" : "MatMul(A, T(B))");
    Dag dag;
    // The transposed input is stored the other way round.
    const DenseMatrix va = transpose_lhs ? RandomDense(k, m, 71, -1.0, 1.0)
                                         : RandomDense(m, k, 71, -1.0, 1.0);
    const DenseMatrix vb = transpose_lhs ? RandomDense(k, n, 72, -1.0, 1.0)
                                         : RandomDense(n, k, 72, -1.0, 1.0);
    const Expr a = Expr::Input(&dag, "A", va.rows(), va.cols());
    const Expr b = Expr::Input(&dag, "B", vb.rows(), vb.cols());
    const Expr product =
        transpose_lhs ? MatMul(T(a), b).MarkOutput() : MatMul(a, T(b))
                                                           .MarkOutput();
    const DenseMatrix want =
        transpose_lhs ? NaiveProduct(NaiveTranspose(va), vb)
                      : NaiveProduct(va, NaiveTranspose(vb));
    std::map<NodeId, BlockedMatrix> inputs;
    inputs[a.id()] = BlockedMatrix::FromDense(va, kBs);
    inputs[b.id()] = BlockedMatrix::FromDense(vb, kBs);

    Engine serial = MakeEngine(Options(/*local_threads=*/1));
    const Engine::RunResult base = CompileAndExecute(serial, dag, inputs);
    ASSERT_TRUE(base.report.ok()) << base.report.status;
    EXPECT_TRUE(
        SameBits(base.outputs.at(product.id()).blocks().ToDense(), want));
    Engine parallel = MakeEngine(Options(/*local_threads=*/4));
    const Engine::RunResult run = CompileAndExecute(parallel, dag, inputs);
    ExpectIdenticalRuns(base, run);
    EXPECT_TRUE(
        SameBits(run.outputs.at(product.id()).blocks().ToDense(), want));
  }
}

}  // namespace
}  // namespace fuseme
