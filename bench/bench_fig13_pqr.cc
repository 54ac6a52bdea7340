// Figure 13: (P,Q,R) parameter optimization.
//  (a) Cost() while sweeping (P,R) at Q=4 on 1M × 5K × 1M;
//  (b) transferred data for the same sweep;
//  (c) modeled elapsed time for the same sweep;
//  (d) wall-clock time of the exhaustive vs pruning parameter search as
//      the voxel count grows.

#include <chrono>
#include <functional>
#include <cstdio>

#include "bench_util.h"
#include "cost/optimizer.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

double WallMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  std::printf("=== Figure 13: optimization of (P,Q,R) ===\n\n");

  // The paper's instance: 1M × 5K × 1M, i.e. U: 1M×5K, V: 1M×5K,
  // X: 1M×1M sparse.
  const std::int64_t n = 1000000, k = 5000;
  NmfPattern q =
      BuildNmfPattern(n, n, k, static_cast<std::int64_t>(0.001 * n * n));
  PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);

  ClusterConfig cluster;  // paper defaults
  CostModel model(cluster);
  PqrOptimizer optimizer(&model);

  PqrChoice best = optimizer.Pruned(plan);
  std::printf("optimizer's choice: (P*,Q*,R*) = %s, Cost() = %.3f\n\n",
              best.c.ToString().c_str(), best.cost);

  std::printf(
      "--- Fig 13(a-c): sweep around the optimum (Q fixed to %lld) ---\n",
      static_cast<long long>(best.c.Q));
  PrintRow({"(P,R)", "Cost()", "data (GB)", "elapsed"});
  PrintRule(4);

  double best_swept_cost = 1e300;
  Cuboid best_swept;
  const std::int64_t q_fix = best.c.Q;
  for (auto [p, r] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {best.c.P + 6, best.c.R},
           {best.c.P + 4, best.c.R},
           {best.c.P + 2, best.c.R},
           {best.c.P, best.c.R},
           {best.c.P + 2, best.c.R - 1},
           {best.c.P + 4, best.c.R - 2},
           {best.c.P + 6, best.c.R - 2}}) {
    if (p < 1 || r < 1) continue;
    Cuboid c{p, q_fix, r};
    const double cost = model.Cost(c, plan);
    const double gb = model.NetEst(c, plan) / 1e9;
    // Elapsed through the simulator for this forced parameter set.
    StageStats stats;
    stats.num_tasks = static_cast<int>(c.volume());
    stats.consolidation_bytes =
        static_cast<std::int64_t>(model.NetEst(c, plan));
    stats.flops = static_cast<std::int64_t>(model.ComEst(c, plan));
    Simulator sim(cluster);
    const double elapsed = sim.EstimateStageSeconds(stats);
    char cell_c[32], cell_g[32], cell_e[32], cell_pr[64];
    std::snprintf(cell_pr, sizeof(cell_pr), "(%lld,%lld)",
                  static_cast<long long>(p), static_cast<long long>(r));
    std::snprintf(cell_c, sizeof(cell_c), "%.3f", cost);
    std::snprintf(cell_g, sizeof(cell_g), "%.1f", gb);
    std::snprintf(cell_e, sizeof(cell_e), "%.1f s", elapsed);
    PrintRow({cell_pr, cell_c, cell_g, cell_e});
    if (cost < best_swept_cost) {
      best_swept_cost = cost;
      best_swept = c;
    }
  }
  std::printf("\nswept minimum at %s — %s the optimizer's pick\n\n",
              best_swept.ToString().c_str(),
              best_swept == best.c ? "matches" : "DIFFERS FROM");

  std::printf("--- Fig 13(d): exhaustive vs pruning search time ---\n");
  PrintRow({"voxels", "exhaustive", "(evals)", "pruning", "(evals)"});
  PrintRule(5);
  // Growing I×J×K grids (in blocks).
  for (std::int64_t side : {140, 320, 360, 500, 710, 1000, 1410}) {
    const std::int64_t dim = side * cluster.block_size;
    NmfPattern sq = BuildNmfPattern(
        dim, dim, 2 * cluster.block_size,
        static_cast<std::int64_t>(0.001 * dim * dim));
    PartialPlan splan(&sq.dag, {sq.vT, sq.mm, sq.add, sq.log, sq.mul},
                      sq.mul);
    CostModel smodel(cluster);
    PqrOptimizer sopt(&smodel);
    const GridDims g = smodel.Grid(splan);
    PqrChoice ex, pr;
    const double ex_ms = WallMs([&] { ex = sopt.Exhaustive(splan); });
    const double pr_ms = WallMs([&] { pr = sopt.Pruned(splan); });
    char voxels[32], exc[32], prc[32];
    std::snprintf(voxels, sizeof(voxels), "%lldK",
                  static_cast<long long>(g.I * g.J * g.K / 1000));
    std::snprintf(exc, sizeof(exc), "%.1f ms", ex_ms);
    std::snprintf(prc, sizeof(prc), "%.1f ms", pr_ms);
    PrintRow({voxels, exc, std::to_string(ex.evaluations), prc,
              std::to_string(pr.evaluations)});
    if (ex.feasible && pr.feasible && pr.cost > ex.cost * (1 + 1e-9)) {
      std::printf("!! pruning missed the optimum (%f vs %f)\n", pr.cost,
                  ex.cost);
      return 1;
    }
  }
  return 0;
}
