// CompiledPlan: the engine's compile-once / execute-many artifact
// (DESIGN.md section 18).
//
// Engine::Compile runs the full planning pipeline exactly once — CFG
// planner, verifier, per-stage solver resolution, and the cost-model base
// predictions — and freezes the result into a CompiledPlan.
// Engine::Execute replays the artifact against fresh inputs of the same
// shape class without re-planning, re-verifying, or re-searching; only
// the input-dependent prediction refinement (the CFO cell-stage
// narrow-dependency model) is re-applied per run, so every execute of
// one artifact yields bitwise identical outputs and StageStats.
//
// The artifact serializes to JSON (ToJson/FromJson) for cross-process
// reuse: the DAG is replayed through the Dag builders and re-validated
// against the recorded metadata, the plan set is re-verified, and every
// stage's solver id is checked against the registry (verifier rules
// compiled-solver / compiled-prediction).

#ifndef FUSEME_ENGINE_COMPILED_PLAN_H_
#define FUSEME_ENGINE_COMPILED_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace fuseme {

/// One frozen stage of a compiled plan (1:1 with the plan set's plans,
/// in execution order): the resolved operator kind, the registry solver
/// chosen for it, and the compile-time base prediction.
struct CompiledStage {
  /// Resolved physical operator (forced kind, or the SystemMode policy's
  /// choice).  Never kAuto.
  OperatorKind kind = OperatorKind::kCfo;
  /// Stable id of the resolved StageSolver (engine/solver_names.h).
  std::string solver_id;
  /// True when Execute must re-apply RefineCellStagePrediction against
  /// the live-bound inputs (CFO on a matmul-free plan); the base numbers
  /// below are pre-refinement.
  bool refine_cell = false;
  /// OK when `prediction` holds; otherwise the exact status the
  /// compile-time prediction failed with (e.g. OutOfMemory when no
  /// cuboid fit), replayed by Execute so failures reproduce too.
  Status prediction_status;
  /// Base (input-independent) prediction: cuboid, task count, and the
  /// closed-form NetEst/AggBytes/ComEst/MemEst estimates.
  StagePrediction prediction;
};

/// Everything Compile produces beyond the DAG and plan set: what Execute
/// replays and what the JSON form records per stage.
struct CompiledStageTable {
  /// Resolved report description: the planner's own, or the synthesized
  /// "caller-supplied (N plan(s))".
  std::string description;
  /// Cached verification output: the plan set's carried diagnostics plus
  /// (when `verified`) one full PlanVerifier::Verify pass.  Execute
  /// replays these instead of re-verifying (kParanoid re-checks).
  std::vector<VerifierDiagnostic> diagnostics;
  /// Whether the verifier ran at compile time (compile-time verify level
  /// was not kOff).  False means `diagnostics` only carries what the
  /// plan set brought along.
  bool verified = false;
  std::vector<CompiledStage> stages;
};

/// InvalidArgument naming the first bound input of `inputs` whose block
/// size is not `block_size` (and both sizes); OK when all match.  Every
/// execute path runs it before binding, so a mismatched input comes back
/// as a Status instead of aborting.
Status CheckInputBlockSizes(const Dag& dag,
                            const std::map<NodeId, BlockedMatrix>& inputs,
                            std::int64_t block_size);

/// A compiled execution artifact: an owned copy of the query DAG, the
/// fusion plan set over it, and the per-stage solver/prediction table.
/// Move-only (stages reference the owned DAG through the plan set).
/// Construct via Engine::Compile / Engine::CompileWithPlans / FromJson.
class CompiledPlan {
 public:
  CompiledPlan(CompiledPlan&&) = default;
  CompiledPlan& operator=(CompiledPlan&&) = default;
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  const Dag& dag() const { return *dag_; }
  const FusionPlanSet& plans() const { return plans_; }
  const CompiledStageTable& table() const { return table_; }
  const std::vector<CompiledStage>& stages() const { return table_.stages; }
  const std::vector<VerifierDiagnostic>& diagnostics() const {
    return table_.diagnostics;
  }
  const std::string& description() const { return table_.description; }
  SystemMode system() const { return system_; }
  /// The forced-operator argument the artifact was compiled with (kAuto
  /// unless the caller forced one through CompileWithPlans).
  OperatorKind forced() const { return forced_; }
  bool analytic() const { return analytic_; }
  /// Verify level the artifact was compiled under.
  VerifyLevel verify() const { return verify_; }
  /// Cluster the plans/predictions were modeled for.
  const ClusterConfig& cluster() const { return cluster_; }

  /// Cheap pre-execution compatibility check: the executing engine's
  /// system/mode/cluster must match what the artifact was compiled for,
  /// every bound input must be blocked at the cluster block size, and
  /// must match its DAG leaf's shape exactly and its recorded sparsity
  /// class (density buckets of floor(log2(d)), ±1 bucket of grace).
  /// Returns InvalidArgument naming the precise mismatch; inputs the DAG
  /// doesn't declare are ignored (their block size is still checked),
  /// and missing ones follow the run path's own rules (synthesized in
  /// analytic mode, InvalidArgument at bind time in real mode).
  Status CheckCompatible(const EngineOptions& options,
                         const std::map<NodeId, BlockedMatrix>& inputs) const;

  /// JSON serialization for cross-process reuse (schema in DESIGN.md
  /// section 18).  FromJson replays the DAG through the builders,
  /// re-validates node metadata, re-verifies the plan set, and checks
  /// every stage's solver id against the registry; a tampered artifact
  /// fails with InvalidArgument citing the compiled-solver /
  /// compiled-prediction verifier rules.
  std::string ToJson() const;
  static Result<CompiledPlan> FromJson(const std::string& json);

 private:
  friend class Engine;
  CompiledPlan() = default;

  /// Owned so the plan set's PartialPlans (which hold a const Dag*) stay
  /// valid across moves and process boundaries.
  std::unique_ptr<Dag> dag_;
  FusionPlanSet plans_;
  CompiledStageTable table_;
  SystemMode system_ = SystemMode::kFuseMe;
  OperatorKind forced_ = OperatorKind::kAuto;
  bool analytic_ = false;
  VerifyLevel verify_ = VerifyLevel::kPlanner;
  ClusterConfig cluster_;
};

}  // namespace fuseme

#endif  // FUSEME_ENGINE_COMPILED_PLAN_H_
