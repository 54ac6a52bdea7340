// Stage-solver registry (DESIGN.md section 18).
//
// A stage solver is one way to run a PartialPlan as a distributed stage:
// it predicts the stage's cost-model statistics and executes the physical
// operator.  The registry turns the engine's historical hard-coded
// CFO/BFO/RFO/cpmm dispatch into data, MIOpen-Fusion-style: each solver
// names itself with a stable id (engine/solver_names.h), states its
// preconditions through IsApplicable — which returns a *precise* Status
// naming the violated precondition instead of a bare boolean — and the
// registry resolves an OperatorKind to the most refined applicable solver
// (e.g. solver.cfo.sddmm before solver.cfo.spmm before solver.cfo).
//
// Selection happens once, in Engine::Compile, and is recorded in the
// CompiledPlan artifact plus the fuseme_solver_* metric families and the
// fuseme.solver.chosen journal event; Engine::Execute replays the recorded
// solver without re-searching.  The OOM degradation ladder re-resolves
// dynamically when it switches operator kinds mid-stage.

#ifndef FUSEME_ENGINE_SOLVER_REGISTRY_H_
#define FUSEME_ENGINE_SOLVER_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "ops/fused_operator.h"
#include "telemetry/prediction.h"

namespace fuseme {

/// Everything a solver may consult, captured by value/pointer so solvers
/// stay stateless and the registry immutable (and therefore freely shared
/// across threads after construction).  All pointers are borrowed;
/// `model` is required, the sinks may be null.
struct SolverEnv {
  const CostModel* model = nullptr;
  bool balance_sparsity = false;
  MetricsRegistry* metrics = nullptr;
  EventJournal* journal = nullptr;

  const ClusterConfig& cluster() const { return model->config(); }
};

/// One way to execute a fused stage.  Implementations are immutable and
/// stateless: every method takes the full context, so a single global
/// instance serves all engines and threads.
class StageSolver {
 public:
  virtual ~StageSolver() = default;

  /// Stable identity from engine/solver_names.h.
  virtual std::string_view id() const = 0;
  /// The OperatorKind this solver implements (what PickOperator / forced
  /// selection asks for).
  virtual OperatorKind kind() const = 0;

  /// OK when every precondition holds; otherwise InvalidArgument naming
  /// the violated precondition (MIOpen-style explicit unsupported-
  /// combination reporting).  Must stay cheap: no (P,Q,R) searches.
  virtual Status IsApplicable(const SolverEnv& env,
                              const PartialPlan& plan) const = 0;

  /// Cost-model prediction for the stage: PredictBase computes the
  /// input-independent closed forms (this is what Engine::Compile records
  /// in the artifact); RefinePrediction then folds in what the live-bound
  /// inputs change (today: the CFO cell-stage narrow-dependency model).
  /// Predict composes the two — the historical Engine::PredictStage
  /// behavior.
  virtual Result<StagePrediction> PredictBase(const SolverEnv& env,
                                              const PartialPlan& plan,
                                              double budget_factor) const = 0;
  virtual void RefinePrediction(const SolverEnv& env, const PartialPlan& plan,
                                const FusedInputs* inputs,
                                StagePrediction* pred) const {
    (void)env;
    (void)plan;
    (void)inputs;
    (void)pred;
  }
  Result<StagePrediction> Predict(const SolverEnv& env,
                                  const PartialPlan& plan,
                                  const FusedInputs* inputs,
                                  double budget_factor) const;

  /// Modeled stage seconds under the default budget, or +infinity when no
  /// feasible configuration exists.  Default: Predict at budget 1.
  virtual double Cost(const SolverEnv& env, const PartialPlan& plan) const;

  /// Executes the stage on real block data.
  virtual Result<DistributedMatrix> RunStage(const SolverEnv& env,
                                             const PartialPlan& plan,
                                             const StagePrediction& pred,
                                             const FusedInputs& inputs,
                                             StageContext* ctx) const = 0;
};

/// Immutable process-wide solver catalogue.  Registration order within an
/// OperatorKind is refined-first, base-last; Resolve scans in that order.
class SolverRegistry {
 public:
  /// The global registry (thread-safe magic-static init; read-only after).
  static const SolverRegistry& Global();

  const std::vector<const StageSolver*>& solvers() const { return view_; }

  /// Solver by stable id, or null.
  const StageSolver* Find(std::string_view id) const;

  /// Solvers implementing `kind`, most refined first.
  std::vector<const StageSolver*> ForKind(OperatorKind kind) const;

  /// Most refined applicable solver for `kind`, falling back to the base
  /// solver when every refinement rejects (so resolution never changes
  /// *whether* a stage can run, only which refinement handles it).
  /// Records fuseme_solver_resolutions/rejections into env.metrics.
  /// Null only for OperatorKind::kAuto.
  const StageSolver* Resolve(const SolverEnv& env, OperatorKind kind,
                             const PartialPlan& plan) const;

 private:
  SolverRegistry();

  std::vector<std::unique_ptr<StageSolver>> solvers_;
  std::vector<const StageSolver*> view_;
};

/// The CFO cell-stage (matmul-free) narrow-dependency refinement: same-
/// shaped grid-partitioned inputs only shuffle their misaligned remainder,
/// and an aggregation root ships per-task partials.  `pred` must hold the
/// base (unrefined) prediction; `inputs` may be null (inputs then assumed
/// grid-partitioned over the whole cluster).  Exposed so Engine::Execute
/// can re-apply it to an artifact's recorded base prediction against the
/// freshly bound inputs of each run.  No-op for matmul-bearing plans.
void RefineCellStagePrediction(const SolverEnv& env, const PartialPlan& plan,
                               const FusedInputs* inputs,
                               StagePrediction* pred);

/// Total serialized bytes of a plan's matrix-valued external inputs,
/// split into the largest ("main", paper §2.2) one and the rest
/// ("sides").  Shared by the BFO solver and the engine's analytic path.
struct InputSplit {
  NodeId main = kInvalidNode;
  std::int64_t main_bytes = 0;
  std::int64_t side_bytes = 0;
};
InputSplit SplitPlanInputs(const PartialPlan& plan);

/// Smallest R making a (1,1,R) cuboid fit the task budget, or -1.
std::int64_t MinFeasibleCpmmR(const CostModel& model, const PartialPlan& plan);

// --- Describe facade -------------------------------------------------------

/// One solver's verdict on one stage, for Engine::Describe.
struct SolverCandidate {
  std::string solver_id;
  /// OK, or the precondition IsApplicable reported violated.
  Status applicability;
  /// Modeled seconds (only meaningful when feasible).
  double cost_seconds = 0.0;
  bool feasible = false;
  /// True for the solver Compile would record for this stage.
  bool chosen = false;
};

struct StageDescription {
  std::string label;
  OperatorKind kind = OperatorKind::kAuto;
  std::vector<SolverCandidate> candidates;
};

/// What Engine::Describe returns: the planner's stage list with every
/// registered solver's applicability/cost verdict per stage.
struct PlanDescription {
  std::string planner;
  std::vector<StageDescription> stages;

  /// Human-readable solver table (the `examples/explain` output).
  std::string ToString() const;
};

}  // namespace fuseme

#endif  // FUSEME_ENGINE_SOLVER_REGISTRY_H_
