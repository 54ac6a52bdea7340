// Parallel execution must be invisible: for any thread count, real-mode
// operators produce bitwise-identical block values AND bitwise-identical
// per-stage accounting (consolidation/aggregation bytes, flops, peak task
// memory) to the serial run.  See DESIGN.md "Execution runtime".

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
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

}  // namespace
}  // namespace fuseme
