#include "probes.h"

#include <functional>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "cost/optimizer.h"
#include "matrix/block_ops.h"
#include "matrix/sparse_kernels.h"
#include "ops/fused_operator.h"
#include "stats.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "verify/plan_verifier.h"

namespace perfbench {

using namespace fuseme;  // NOLINT

namespace {

/// Calls `fn` until `budget` seconds have passed (at least five calls) and
/// returns the median seconds per call.
double MedianCallSeconds(double budget, const std::function<void()>& fn) {
  std::vector<double> samples;
  const double start = NowSeconds();
  while (samples.size() < 5 || NowSeconds() - start < budget) {
    const double t0 = NowSeconds();
    fn();
    samples.push_back(NowSeconds() - t0);
  }
  return Median(samples);
}

std::string Shape(std::int64_t r, std::int64_t c) {
  return std::to_string(r) + "x" + std::to_string(c);
}

void Check(const Status& status) {
  FUSEME_CHECK(status.ok()) << "kernel probe failed: " << status.ToString();
}

}  // namespace

std::vector<KernelProbe> RunKernelProbes(const Workload& w, double budget,
                                         Tracer* tracer) {
  std::vector<KernelProbe> probes;
  if (w.analytic || w.queries.empty()) return probes;
  const Query& q = w.queries.front();
  const std::map<NodeId, BlockedMatrix> blocked = BlockInputs(q);

  // Operands: A and B are the top-left blocks of the first two dense
  // inputs, B oriented so that A·B is defined; S is the top-left block of
  // the sparse input (a CSR copy of A when the workload has none).
  std::vector<DenseMatrix> dense;
  std::optional<SparseMatrix> sparse;
  for (const auto& [id, m] : blocked) {
    const Block& b = m.block(0, 0);
    if (b.kind() == Block::Kind::kSparse && !sparse) sparse = b.sparse();
    if (b.kind() == Block::Kind::kDense) dense.push_back(b.dense());
  }
  FUSEME_CHECK(!dense.empty()) << "workload has no dense input";
  const DenseMatrix a = dense[0];
  DenseMatrix b = dense.size() > 1 ? dense[1] : a.Transposed();
  if (a.cols() != b.rows()) {
    b = a.cols() == b.cols() ? b.Transposed() : a.Transposed();
  }
  if (!sparse) sparse = SparseMatrix::FromDense(a);
  const SparseMatrix& s = *sparse;
  const Block block_a = Block::FromDense(a);
  const Block block_b = Block::FromDense(b);
  // Times `call`, which returns the operations it performed.
  const auto probe = [&](std::string name, std::string shape,
                         std::int64_t computed_bytes,
                         const std::function<std::int64_t()>& call) {
    ScopedSpan span(tracer, "probe " + name, "bench");
    KernelProbe p{std::move(name), std::move(shape)};
    p.seconds = MedianCallSeconds(budget / 4, [&] { p.ops = call(); });
    p.computed_bytes = computed_bytes;
    probes.push_back(std::move(p));
  };

  DenseMatrix gemm_acc(a.rows(), b.cols());
  probe("gemm", Shape(a.rows(), a.cols()) + "*" + Shape(b.rows(), b.cols()),
        8 * (a.size() + b.size() + 2 * gemm_acc.size()), [&] {
          std::int64_t flops = 0;
          Check(MatMulAcc(&gemm_acc, block_a, block_b, &flops));
          return flops;
        });
  // SpMM: acc += S·D with D whichever of A, B has S.cols() rows.
  const DenseMatrix* d = a.rows() == s.cols()   ? &a
                         : b.rows() == s.cols() ? &b
                                                : nullptr;
  if (d != nullptr) {
    DenseMatrix acc(s.rows(), d->cols());
    probe("spmm",
          Shape(s.rows(), s.cols()) + " nnz " + std::to_string(s.nnz()) +
              "*" + Shape(d->rows(), d->cols()),
          12 * s.nnz() + 8 * (s.rows() + 1) + 8 * d->size() + 16 * acc.size(),
          [&] {
            std::int64_t flops = 0;
            SpmmAccSparseDense(&acc, s, *d, &flops);
            return flops;
          });
  }
  // SDDMM: the A·B dot products at S's stored positions.
  if (a.rows() == s.rows() && b.cols() == s.cols()) {
    std::vector<double> acc(static_cast<std::size_t>(s.nnz()), 0.0);
    probe("sddmm",
          "mask " + Shape(s.rows(), s.cols()) + " nnz " +
              std::to_string(s.nnz()) + ", k " + std::to_string(a.cols()),
          12 * s.nnz() + 8 * (s.rows() + 1) + 8 * (a.size() + b.size()) +
              16 * s.nnz(),
          [&] {
            std::int64_t flops = 0;
            SddmmAcc(s, block_a, block_b, &acc, &flops);
            return flops;
          });
  }
  // Element-wise: A*A then sigmoid, counted in cells; 2 reads + a write,
  // then a read + a write per cell.
  probe("ewise", Shape(a.rows(), a.cols()) + " mul+sigmoid", 8 * a.size() * 5,
        [&] {
          Result<Block> product =
              EwiseBinary(BinaryFn::kMul, block_a, block_a);
          Check(product.status());
          Check(Unary(UnaryFn::kSigmoid, *product).status());
          return 2 * a.size();
        });
  return probes;
}

CompileProbe RunCompileProbes(const Workload& w, double budget,
                              Tracer* tracer) {
  // Compile searches a cuboid only for the stages it runs as a CFO; the
  // optimize probe times the same searches.
  std::vector<std::vector<bool>> searched;
  for (const Query& q : w.queries) {
    Result<Engine> engine = Engine::Create(q.options);
    FUSEME_CHECK(engine.ok()) << engine.status().ToString();
    Result<CompiledPlan> plan = CompileQuery(*engine, q);
    FUSEME_CHECK(plan.ok()) << plan.status().ToString();
    std::vector<bool> cfo;
    for (const CompiledStage& stage : plan->stages()) {
      cfo.push_back(stage.kind == OperatorKind::kCfo);
    }
    searched.push_back(std::move(cfo));
  }
  // Every pass gets fresh registries so its counters can be compared with
  // the first pass.
  std::vector<double> plan_s, optimize_s, verify_s;
  CompileProbe out;
  const double start = NowSeconds();
  while (out.passes < 3 || NowSeconds() - start < budget) {
    MetricsRegistry plan_metrics, cost_metrics, verify_metrics;
    double plan = 0, optimize = 0, verify = 0;
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      const Query& q = w.queries[i];
      EngineOptions options = q.options;
      options.metrics = &plan_metrics;
      Result<Engine> planning = Engine::Create(options);
      FUSEME_CHECK(planning.ok()) << planning.status().ToString();

      FusionPlanSet set;
      {
        ScopedSpan span(tracer, "plan", "bench");
        const double t0 = NowSeconds();
        if (q.plan_members.empty()) {
          set = planning->MakePlans(q.dag);
        } else {
          set.plans.emplace_back(&q.dag, q.plan_members, q.plan_root);
        }
        plan += NowSeconds() - t0;
      }
      {
        ScopedSpan span(tracer, "optimize", "bench");
        PqrOptimizer optimizer(&planning->cost_model());
        optimizer.set_metrics(&cost_metrics);
        const double t0 = NowSeconds();
        for (std::size_t p = 0; p < set.plans.size(); ++p) {
          if (p < searched[i].size() && searched[i][p]) {
            // As Compile does: R stays 1 where the plan cannot split k.
            const PartialPlan& region = set.plans[p];
            optimizer.Pruned(region, CuboidSupportsKSplit(region) ? 0 : 1);
          }
        }
        optimize += NowSeconds() - t0;
      }
      {
        ScopedSpan span(tracer, "verify", "bench");
        PlanVerifier verifier(&planning->cost_model());
        verifier.set_metrics(&verify_metrics);
        const double t0 = NowSeconds();
        verifier.Verify(q.dag, set, VerifyLevel::kPlanner);
        verify += NowSeconds() - t0;
      }
    }
    plan_s.push_back(plan);
    optimize_s.push_back(optimize);
    verify_s.push_back(verify);

    namespace mn = metric_names;
    const MetricsSnapshot ps = plan_metrics.Snapshot();
    const MetricsSnapshot cs = cost_metrics.Snapshot();
    CompileProbe pass;
    pass.candidates = ps.CounterTotal(mn::kPlannerExplorationCandidates);
    pass.split_attempts = ps.CounterTotal(mn::kPlannerSplitAttempts);
    pass.splits = ps.CounterTotal(mn::kPlannerSplits);
    pass.plans = ps.CounterTotal(mn::kPlannerPlans);
    pass.searches = cs.CounterTotal(mn::kOptimizerSearches);
    pass.cuboids_evaluated = cs.CounterTotal(mn::kOptimizerEvaluations);
    pass.cuboids_pruned = cs.CounterTotal(mn::kOptimizerCuboidsPruned);
    pass.infeasible = cs.CounterTotal(mn::kOptimizerInfeasible);
    pass.checks = verify_metrics.Snapshot().CounterTotal(mn::kVerifierChecks);
    const auto counters = [](const CompileProbe& p) {
      return std::vector<std::int64_t>{
          p.candidates, p.split_attempts, p.splits,
          p.plans,      p.searches,       p.cuboids_evaluated,
          p.cuboids_pruned, p.infeasible, p.checks};
    };
    if (out.passes == 0) {
      out = pass;
    } else if (counters(pass) != counters(out)) {
      ++out.inexact_passes;
    }
    ++out.passes;
  }
  out.plan_s = Median(plan_s);
  out.optimize_s = Median(optimize_s);
  out.verify_s = Median(verify_s);
  return out;
}

}  // namespace perfbench
