// Ablation studies on the design choices DESIGN.md calls out:
//  (1) the elastic R axis — CFO with optimizer-chosen R vs forced R=1;
//  (2) the memory-feasibility constraint — optimizer vs "fill the cluster"
//      heuristics (T,T,1) and (I,J,1);
//  (3) the exploitation phase — CFG with vs without plan splitting;
//  (4) pruned vs exhaustive search result quality.

#include <cstdio>

#include "bench_util.h"
#include "cost/optimizer.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

ExecutionReport RunForced(const Dag& dag, const FusionPlanSet& plans,
                          OperatorKind kind) {
  EngineOptions options;
  options.analytic = true;
  return CompileAndExecute(CreateEngine(options), dag, plans, {}, kind)
      .report;
}

}  // namespace

int main() {
  ClusterConfig cluster;
  CostModel model(cluster);

  std::printf("=== Ablation 1: the elastic R axis ===\n");
  PrintRow({"spec", "R* chosen", "cost(R*)", "cost(R=1)", "penalty"});
  PrintRule(5);
  for (const SyntheticSpec& spec : VaryCommonDimension()) {
    NmfPattern q = BuildNmfPattern(spec.i, spec.j, spec.k, spec.x_nnz());
    PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
    PqrOptimizer opt(&model);
    PqrChoice free_r = opt.Pruned(plan);
    // Best parameters with R forced to 1.
    PqrChoice r1;
    const GridDims g = model.Grid(plan);
    for (std::int64_t p = 1; p <= g.I; ++p) {
      for (std::int64_t qq = 1; qq <= g.J; ++qq) {
        Cuboid c{p, qq, 1};
        if (c.volume() < cluster.total_tasks()) continue;
        if (model.MemEst(c, plan) >
            static_cast<double>(cluster.task_memory_budget)) {
          continue;
        }
        const double cost = model.Cost(c, plan);
        if (!r1.feasible || cost < r1.cost) {
          r1.feasible = true;
          r1.cost = cost;
          r1.c = c;
        }
      }
    }
    char a[32], b[32], pen[32];
    std::snprintf(a, sizeof(a), "%.3f", free_r.cost);
    std::snprintf(b, sizeof(b), "%.3f", r1.feasible ? r1.cost : -1.0);
    std::snprintf(pen, sizeof(pen), "%.2fx",
                  r1.feasible ? r1.cost / free_r.cost : 0.0);
    PrintRow({"K=" + spec.label, std::to_string(free_r.c.R), a, b, pen});
  }

  std::printf("\n=== Ablation 2: cost-based (P,Q,R) vs fixed policies ===\n");
  PrintRow({"spec", "CFO(P*,Q*,R*)", "BFO-like", "RFO-like"});
  PrintRule(4);
  for (const SyntheticSpec& spec : VaryTwoLargeDimensions()) {
    NmfPattern q = BuildNmfPattern(spec.i, spec.j, spec.k, spec.x_nnz());
    FusionPlanSet full;
    full.plans.emplace_back(
        &q.dag, std::vector<NodeId>{q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
    PrintRow({spec.label,
              ElapsedCell(RunForced(q.dag, full, OperatorKind::kCfo)),
              ElapsedCell(RunForced(q.dag, full, OperatorKind::kBfo)),
              ElapsedCell(RunForced(q.dag, full, OperatorKind::kRfo))});
  }

  std::printf("\n=== Ablation 3: CFG exploitation phase on GNMF ===\n");
  {
    GnmfQuery q = BuildGnmf(480189, 17770, 200, 100480507);
    CfgPlanner planner(&model);
    auto explored = planner.ExplorationPhase(q.dag);
    auto refined = planner.ExploitationPhase(q.dag, explored);

    EngineOptions options;
    options.analytic = true;
    const Engine engine = CreateEngine(options);
    FusionPlanSet raw = FinalizePlanSet(q.dag, explored, "explore only");
    FusionPlanSet split =
        FinalizePlanSet(q.dag, refined, "explore + exploit");
    ExecutionReport raw_report =
        CompileAndExecute(engine, q.dag, raw, {}, OperatorKind::kCfo).report;
    ExecutionReport split_report =
        CompileAndExecute(engine, q.dag, split, {}, OperatorKind::kCfo)
            .report;
    PrintRow({"phase", "plans", "elapsed", "comm GB"});
    PrintRule(4);
    PrintRow({"explore only", std::to_string(raw.plans.size()),
              ElapsedCell(raw_report), BytesCell(raw_report)});
    PrintRow({"explore+exploit", std::to_string(split.plans.size()),
              ElapsedCell(split_report), BytesCell(split_report)});
  }

  std::printf("\n=== Ablation 4: pruning never loses to exhaustive ===\n");
  PrintRow({"spec", "pruned cost", "exhaustive", "evals ratio"});
  PrintRule(4);
  for (std::int64_t k : {500, 2000, 8000}) {
    NmfPattern q = BuildNmfPattern(50000, 50000, k,
                                   static_cast<std::int64_t>(2.5e8));
    PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
    PqrOptimizer opt(&model);
    PqrChoice pr = opt.Pruned(plan);
    PqrChoice ex = opt.Exhaustive(plan);
    char a[32], b[32], ratio[32];
    std::snprintf(a, sizeof(a), "%.3f", pr.cost);
    std::snprintf(b, sizeof(b), "%.3f", ex.cost);
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  static_cast<double>(ex.evaluations) /
                      std::max<std::int64_t>(pr.evaluations, 1));
    PrintRow({"K=" + std::to_string(k), a, b, ratio});
    if (pr.cost > ex.cost * (1 + 1e-9)) {
      std::printf("!! pruning lost the optimum\n");
      return 1;
    }
  }
  return 0;
}
