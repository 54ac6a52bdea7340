#include "engine/solver_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/solver_names.h"
#include "fusion/sparsity_analysis.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace fuseme {

namespace {

/// Eq. 2 for estimates assembled outside the cost model's Cost().
double Eq2Seconds(const ClusterConfig& cluster, double bytes, double flops) {
  const double n = static_cast<double>(cluster.num_nodes);
  return std::max(bytes / (n * cluster.net_bandwidth),
                  flops / (n * cluster.compute_bandwidth));
}

void FillEstimates(const Cuboid& c, const CostModel::Estimates& est,
                   const ClusterConfig& cluster, StagePrediction* pred) {
  pred->cuboid = c;
  // W-grouped k-slices share a leader task, so schedulable tasks are the
  // effective volume P·Q·⌈R/W⌉ (= P·Q·R when W = 1).
  pred->num_tasks = static_cast<int>(
      std::min<std::int64_t>(c.effective_volume(), 1 << 24));
  pred->net_bytes = est.net_bytes;
  pred->agg_bytes = est.agg_bytes;
  pred->flops = est.flops;
  pred->mem_per_task = est.mem_per_task;
  pred->cost_seconds =
      Eq2Seconds(cluster, est.net_bytes + est.agg_bytes, est.flops);
}

/// (P,Q,R) search under the configured budget scaled by `budget_factor`
/// (< 1 models a tighter budget, steering the search toward finer cuboids
/// with smaller per-task footprints).
PqrChoice OptimizeCuboid(const SolverEnv& env, const PartialPlan& plan,
                         double budget_factor) {
  // Plans whose O-space reshapes the matmul output cannot split the
  // common dimension (no coordinate-wise partial merge is possible).
  const std::int64_t max_r = CuboidSupportsKSplit(plan) ? 0 : 1;
  auto search = [&](const CostModel* model) {
    PqrOptimizer optimizer(model);
    optimizer.set_metrics(env.metrics);
    return optimizer.Pruned(plan, max_r);
  };
  PqrChoice choice;
  if (budget_factor == 1.0) {
    choice = search(env.model);
  } else {
    const CostModel tight = env.model->WithBudgetFactor(budget_factor);
    choice = search(&tight);
  }
  if (env.journal != nullptr) {
    if (choice.feasible) {
      env.journal->Emit(LogLevel::kInfo, event_names::kOptimizerChoice,
                        {{"plan", plan.ToString()},
                         {"cuboid", choice.c.ToString()},
                         {"cost_seconds", std::to_string(choice.cost)}});
    } else {
      env.journal->Emit(LogLevel::kWarning, event_names::kOptimizerChoice,
                        {{"plan", plan.ToString()}, {"feasible", "false"}});
    }
  }
  return choice;
}

/// Shared empty-region precondition: fused operators iterate member
/// operator nodes, so an empty plan has nothing to execute.
Status RequireMembers(std::string_view solver_id, const PartialPlan& plan) {
  if (plan.members().empty()) {
    return Status::InvalidArgument(
        std::string(solver_id) +
        " requires a fused region with at least one member operator; the "
        "plan is empty");
  }
  return Status::OK();
}

// --- CFO family ------------------------------------------------------------

Result<StagePrediction> CfoPredictBase(const SolverEnv& env,
                                       const PartialPlan& plan,
                                       double budget_factor) {
  StagePrediction pred;
  pred.present = true;
  pred.operator_kind = "CFO";
  const PqrChoice choice = OptimizeCuboid(env, plan, budget_factor);
  if (!choice.feasible) {
    return Status::OutOfMemory(
        "no feasible (P,Q,R) for plan " + plan.ToString() +
        " within the per-task budget" +
        (budget_factor == 1.0
             ? ""
             : " (degraded to " + std::to_string(budget_factor) + "x)"));
  }
  CostModel::Estimates est;
  est.mem_per_task = choice.mem_per_task;
  est.net_bytes = choice.net_bytes;
  est.agg_bytes = choice.agg_bytes;
  est.flops = choice.flops;
  FillEstimates(choice.c, est, env.cluster(), &pred);
  pred.cost_seconds = choice.cost;
  return pred;
}

class CfoSolver : public StageSolver {
 public:
  std::string_view id() const override { return solver_names::kCfo; }
  OperatorKind kind() const override { return OperatorKind::kCfo; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    (void)env;
    return RequireMembers(id(), plan);
  }

  Result<StagePrediction> PredictBase(const SolverEnv& env,
                                      const PartialPlan& plan,
                                      double budget_factor) const override {
    return CfoPredictBase(env, plan, budget_factor);
  }

  void RefinePrediction(const SolverEnv& env, const PartialPlan& plan,
                        const FusedInputs* inputs,
                        StagePrediction* pred) const override {
    RefineCellStagePrediction(env, plan, inputs, pred);
  }

  Result<DistributedMatrix> RunStage(const SolverEnv& env,
                                     const PartialPlan& plan,
                                     const StagePrediction& pred,
                                     const FusedInputs& inputs,
                                     StageContext* ctx) const override {
    CuboidOptions cuboid_options;
    cuboid_options.balance_sparsity = env.balance_sparsity;
    return CuboidFusedOperator::Execute(plan, pred.cuboid, inputs, ctx,
                                        cuboid_options);
  }
};

/// Refinements share the base CFO's prediction and execution — the sparse
/// kernel dispatch lives inside CuboidFusedOperator / the evaluator — so
/// resolving to one changes the recorded identity and telemetry, never
/// the numbers.  Their preconditions state when the sparse paths engage.
class CfoSpmmSolver : public CfoSolver {
 public:
  std::string_view id() const override { return solver_names::kCfoSpmm; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    (void)env;
    FUSEME_RETURN_IF_ERROR(RequireMembers(id(), plan));
    if (plan.MatMuls().empty()) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires a member matrix multiplication to drive the sparse "
          "kernels; the plan has none");
    }
    const SparseDriver driver = FindSparseDriver(plan, plan.MainMatMul());
    if (!driver.found()) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires an element-wise sparse mask (density < " +
          std::to_string(kSparseDriverDensityThreshold) +
          ") over the matrix product; no sparse driver found");
    }
    return Status::OK();
  }
};

class CfoSddmmSolver : public CfoSolver {
 public:
  std::string_view id() const override { return solver_names::kCfoSddmm; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    (void)env;
    FUSEME_RETURN_IF_ERROR(RequireMembers(id(), plan));
    if (plan.MatMuls().empty()) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires a member matrix multiplication to evaluate at the "
          "mask's stored positions; the plan has none");
    }
    const NodeId main_mm = plan.MainMatMul();
    const SparseDriver driver = FindSparseDriver(plan, main_mm);
    if (!driver.found()) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires an element-wise sparse mask (density < " +
          std::to_string(kSparseDriverDensityThreshold) +
          ") over the matrix product; no sparse driver found");
    }
    const Node& mul = plan.dag().node(driver.mul_node);
    const bool masks_matmul_directly =
        std::find(mul.inputs.begin(), mul.inputs.end(), main_mm) !=
        mul.inputs.end();
    if (!masks_matmul_directly) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires the sparse mask to multiply the matrix product "
          "directly (SDDMM); the mask applies through an element-wise "
          "chain");
    }
    return Status::OK();
  }
};

// --- BFO -------------------------------------------------------------------

class BfoSolver : public StageSolver {
 public:
  std::string_view id() const override { return solver_names::kBfo; }
  OperatorKind kind() const override { return OperatorKind::kBfo; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    FUSEME_RETURN_IF_ERROR(RequireMembers(id(), plan));
    const InputSplit split = SplitPlanInputs(plan);
    const std::int64_t budget = env.cluster().task_memory_budget;
    if (split.side_bytes > budget) {
      return Status::InvalidArgument(
          std::string(id()) + " must broadcast " +
          HumanBytes(static_cast<double>(split.side_bytes)) +
          " of side matrices to every task, exceeding the per-task memory "
          "budget (" +
          HumanBytes(static_cast<double>(budget)) + ")");
    }
    return Status::OK();
  }

  Result<StagePrediction> PredictBase(const SolverEnv& env,
                                      const PartialPlan& plan,
                                      double budget_factor) const override {
    (void)budget_factor;  // BFO has no cuboid to shrink.
    const Dag& dag = plan.dag();
    const ClusterConfig& cluster = env.cluster();
    StagePrediction pred;
    pred.present = true;
    pred.operator_kind = "BFO";
    const InputSplit split = SplitPlanInputs(plan);
    std::int64_t num_tasks = cluster.total_tasks();
    if (split.main != kInvalidNode) {
      const Node& main = dag.node(split.main);
      const std::int64_t bs = cluster.block_size;
      const std::int64_t blocks =
          ((main.rows + bs - 1) / bs) * ((main.cols + bs - 1) / bs);
      num_tasks = std::min<std::int64_t>(
          num_tasks, EstimateSparkPartitions(split.main_bytes, blocks));
    }
    num_tasks = std::max<std::int64_t>(num_tasks, 1);
    pred.cuboid = Cuboid{1, 1, 1};
    pred.num_tasks = static_cast<int>(num_tasks);
    pred.net_bytes =
        static_cast<double>(split.main_bytes + num_tasks * split.side_bytes);
    pred.agg_bytes = 0;
    // Side-space work repeats on every task (the paper's "BFO executes
    // the transpose T times"): the cost model at (T, T, 1) captures it.
    pred.flops = env.model->ComEst(Cuboid{num_tasks, num_tasks, 1}, plan);
    pred.mem_per_task =
        static_cast<double>(split.main_bytes) / num_tasks +
        static_cast<double>(split.side_bytes) +
        static_cast<double>(SizeOf(dag, plan.root())) / num_tasks;
    pred.cost_seconds = Eq2Seconds(cluster, pred.net_bytes, pred.flops);
    return pred;
  }

  Result<DistributedMatrix> RunStage(const SolverEnv& env,
                                     const PartialPlan& plan,
                                     const StagePrediction& pred,
                                     const FusedInputs& inputs,
                                     StageContext* ctx) const override {
    (void)env;
    (void)pred;
    return BroadcastFusedOperator::Execute(plan, inputs, ctx);
  }
};

// --- RFO -------------------------------------------------------------------

class RfoSolver : public StageSolver {
 public:
  std::string_view id() const override { return solver_names::kRfo; }
  OperatorKind kind() const override { return OperatorKind::kRfo; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    FUSEME_RETURN_IF_ERROR(RequireMembers(id(), plan));
    const GridDims g = env.model->Grid(plan);
    const double mem = env.model->MemEst(Cuboid{g.I, g.J, 1}, plan);
    const std::int64_t budget = env.cluster().task_memory_budget;
    if (mem > static_cast<double>(budget)) {
      return Status::InvalidArgument(
          std::string(id()) + " replicates " + HumanBytes(mem) +
          " per task at (I,J,1), exceeding the per-task memory budget (" +
          HumanBytes(static_cast<double>(budget)) + ")");
    }
    return Status::OK();
  }

  Result<StagePrediction> PredictBase(const SolverEnv& env,
                                      const PartialPlan& plan,
                                      double budget_factor) const override {
    (void)budget_factor;  // RFO's cuboid is fixed at (I,J,1).
    StagePrediction pred;
    pred.present = true;
    pred.operator_kind = "RFO";
    const GridDims g = env.model->Grid(plan);
    const Cuboid c{g.I, g.J, 1};
    FillEstimates(c, env.model->Estimate(c, plan), env.cluster(), &pred);
    return pred;
  }

  Result<DistributedMatrix> RunStage(const SolverEnv& env,
                                     const PartialPlan& plan,
                                     const StagePrediction& pred,
                                     const FusedInputs& inputs,
                                     StageContext* ctx) const override {
    (void)env;
    return CuboidFusedOperator::Execute(plan, pred.cuboid, inputs, ctx);
  }
};

// --- cpmm ------------------------------------------------------------------

class CpmmSolver : public StageSolver {
 public:
  std::string_view id() const override { return solver_names::kCpmm; }
  OperatorKind kind() const override { return OperatorKind::kCpmm; }

  Status IsApplicable(const SolverEnv& env,
                      const PartialPlan& plan) const override {
    FUSEME_RETURN_IF_ERROR(RequireMembers(id(), plan));
    if (plan.MatMuls().empty()) {
      return Status::InvalidArgument(
          std::string(id()) +
          " requires a member matrix multiplication to split along the "
          "common dimension; the plan has none");
    }
    if (!CuboidSupportsKSplit(plan)) {
      return Status::InvalidArgument(
          std::string(id()) +
          " cannot split the common dimension: the plan's O-space reshapes "
          "the matmul output, so partial results have no coordinate-wise "
          "merge");
    }
    if (MinFeasibleCpmmR(*env.model, plan) < 0) {
      return Status::InvalidArgument(
          std::string(id()) +
          " found no (1,1,R) cuboid within the per-task memory budget");
    }
    return Status::OK();
  }

  Result<StagePrediction> PredictBase(const SolverEnv& env,
                                      const PartialPlan& plan,
                                      double budget_factor) const override {
    (void)budget_factor;  // The smallest feasible R is already minimal.
    StagePrediction pred;
    pred.present = true;
    pred.operator_kind = "cpmm";
    const std::int64_t r = MinFeasibleCpmmR(*env.model, plan);
    if (r < 0) {
      return Status::OutOfMemory("cpmm cannot fit " + plan.ToString() +
                                 " within the per-task budget");
    }
    const Cuboid c{1, 1, r};
    FillEstimates(c, env.model->Estimate(c, plan), env.cluster(), &pred);
    // One (p,q) pair but R k-slices: parallelism R.
    pred.num_tasks = static_cast<int>(r);
    return pred;
  }

  Result<DistributedMatrix> RunStage(const SolverEnv& env,
                                     const PartialPlan& plan,
                                     const StagePrediction& pred,
                                     const FusedInputs& inputs,
                                     StageContext* ctx) const override {
    (void)env;
    return CuboidFusedOperator::Execute(plan, pred.cuboid, inputs, ctx);
  }
};

}  // namespace

Result<StagePrediction> StageSolver::Predict(const SolverEnv& env,
                                             const PartialPlan& plan,
                                             const FusedInputs* inputs,
                                             double budget_factor) const {
  FUSEME_ASSIGN_OR_RETURN(StagePrediction pred,
                          PredictBase(env, plan, budget_factor));
  RefinePrediction(env, plan, inputs, &pred);
  return pred;
}

double StageSolver::Cost(const SolverEnv& env, const PartialPlan& plan) const {
  const Result<StagePrediction> pred =
      Predict(env, plan, /*inputs=*/nullptr, /*budget_factor=*/1.0);
  return pred.ok() ? pred->cost_seconds
                   : std::numeric_limits<double>::infinity();
}

SolverRegistry::SolverRegistry() {
  // Refined-first within each kind; the base solver must come last so
  // Resolve's fallback lands on it.
  solvers_.push_back(std::make_unique<CfoSddmmSolver>());
  solvers_.push_back(std::make_unique<CfoSpmmSolver>());
  solvers_.push_back(std::make_unique<CfoSolver>());
  solvers_.push_back(std::make_unique<BfoSolver>());
  solvers_.push_back(std::make_unique<RfoSolver>());
  solvers_.push_back(std::make_unique<CpmmSolver>());
  view_.reserve(solvers_.size());
  for (const auto& solver : solvers_) view_.push_back(solver.get());
}

const SolverRegistry& SolverRegistry::Global() {
  static const SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

const StageSolver* SolverRegistry::Find(std::string_view id) const {
  for (const StageSolver* solver : view_) {
    if (solver->id() == id) return solver;
  }
  return nullptr;
}

std::vector<const StageSolver*> SolverRegistry::ForKind(
    OperatorKind kind) const {
  std::vector<const StageSolver*> out;
  for (const StageSolver* solver : view_) {
    if (solver->kind() == kind) out.push_back(solver);
  }
  return out;
}

const StageSolver* SolverRegistry::Resolve(const SolverEnv& env,
                                           OperatorKind kind,
                                           const PartialPlan& plan) const {
  const std::vector<const StageSolver*> candidates = ForKind(kind);
  if (candidates.empty()) return nullptr;
  const StageSolver* chosen = nullptr;
  for (const StageSolver* solver : candidates) {
    const Status applicable = solver->IsApplicable(env, plan);
    if (applicable.ok()) {
      chosen = solver;
      break;
    }
    if (env.metrics != nullptr) {
      env.metrics
          ->GetCounter(metric_names::kSolverRejections,
                       {{"solver", std::string(solver->id())}})
          ->Increment();
    }
  }
  // Every refinement rejected: the base solver still runs the stage the
  // way the pre-registry engine did (and surfaces its own OOM/estimate
  // failures), so resolution never changes *whether* a stage executes.
  if (chosen == nullptr) chosen = candidates.back();
  if (env.metrics != nullptr) {
    env.metrics
        ->GetCounter(metric_names::kSolverResolutions,
                     {{"solver", std::string(chosen->id())}})
        ->Increment();
  }
  return chosen;
}

void RefineCellStagePrediction(const SolverEnv& env, const PartialPlan& plan,
                               const FusedInputs* inputs,
                               StagePrediction* pred) {
  if (!plan.MatMuls().empty()) return;
  const Dag& dag = plan.dag();
  const ClusterConfig& cluster = env.cluster();
  // Cell stage: same-shaped grid-partitioned inputs are narrow
  // dependencies (no shuffle) where their owner task coincides with this
  // stage's round-robin task; only the misaligned remainder and reshaping
  // inputs (vectors, transposes) move, and an aggregation root ships its
  // per-task partials.  The executor behaves this way, so the prediction
  // must too.
  //
  // Both sides assign tile idx round-robin, so owner(idx) =
  // idx % producer_tasks matches task(idx) = idx % num_tasks on min/lcm
  // of the tiles (e.g. a single-partition BFO output feeding a 6-task
  // cell stage aligns on 1/6 of them).
  auto aligned_fraction = [](std::int64_t consumer, std::int64_t producer) {
    if (consumer <= 0 || producer <= 0) return 0.0;
    const std::int64_t g = std::gcd(consumer, producer);
    const std::int64_t lcm = consumer / g * producer;
    return static_cast<double>(std::min(consumer, producer)) /
           static_cast<double>(lcm);
  };
  const Node& root = dag.node(plan.root());
  const bool agg_root = root.kind == OpKind::kUnaryAgg;
  const Node& grid_node = agg_root ? dag.node(root.inputs[0]) : root;
  const double base_net = pred->net_bytes;
  double net = 0;
  for (NodeId ext : plan.ExternalInputs()) {
    const Node& n = dag.node(ext);
    if (!n.is_matrix()) continue;
    const double bytes = static_cast<double>(SizeOf(dag, ext));
    if (n.rows == grid_node.rows && n.cols == grid_node.cols) {
      std::int64_t producer_tasks = cluster.total_tasks();
      if (inputs != nullptr) {
        auto it = inputs->find(ext);
        if (it != inputs->end()) {
          producer_tasks = it->second->scheme() == PartitionScheme::kGrid
                               ? it->second->num_tasks()
                               : 0;  // row/col layouts never align
        }
      }
      net += bytes * (1.0 - aligned_fraction(pred->num_tasks, producer_tasks));
      continue;
    }
    net += bytes;
  }
  pred->net_bytes = net;
  if (agg_root) {
    pred->agg_bytes =
        std::min(base_net, static_cast<double>(pred->num_tasks) *
                               static_cast<double>(SizeOf(dag, plan.root())));
  }
  pred->cost_seconds = Eq2Seconds(
      cluster, pred->net_bytes + pred->agg_bytes, pred->flops);
}

InputSplit SplitPlanInputs(const PartialPlan& plan) {
  const Dag& dag = plan.dag();
  InputSplit split;
  std::int64_t total = 0;
  std::int64_t main_cells = -1;
  for (NodeId ext : plan.ExternalInputs()) {
    const Node& n = dag.node(ext);
    if (!n.is_matrix()) continue;
    const std::int64_t bytes = SizeOf(dag, ext);
    total += bytes;
    // Paper §2.2: the main matrix is the one with the most elements.
    const std::int64_t cells = n.rows * n.cols;
    if (cells > main_cells) {
      main_cells = cells;
      split.main = ext;
      split.main_bytes = bytes;
    }
  }
  split.side_bytes = total - split.main_bytes;
  return split;
}

std::int64_t MinFeasibleCpmmR(const CostModel& model,
                              const PartialPlan& plan) {
  const GridDims g = model.Grid(plan);
  for (std::int64_t r = 1; r <= g.K; ++r) {
    if (model.MemEst(Cuboid{1, 1, r}, plan) <=
        static_cast<double>(model.config().task_memory_budget)) {
      return r;
    }
  }
  return -1;
}

std::string PlanDescription::ToString() const {
  std::string out = "planner: " + planner + "\n";
  for (const StageDescription& stage : stages) {
    out += "stage " + stage.label + " [" +
           std::string(OperatorKindName(stage.kind)) + "]\n";
    for (const SolverCandidate& c : stage.candidates) {
      out += c.chosen ? "  * " : "    ";
      out += c.solver_id;
      if (!c.applicability.ok()) {
        out += "  rejected: " + c.applicability.message();
      } else if (c.feasible) {
        out += "  cost " + std::to_string(c.cost_seconds) + "s";
      } else {
        out += "  infeasible";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace fuseme
