// Engine: DAG in, fusion plan + distributed execution + report out.
//
// The engine reproduces four systems' planning/execution policies on one
// runtime (paper §6: SystemDS, MatFast, DistME, FuseME):
//
//   kFuseMe   CFG planner, every plan as a CFO with optimizer-chosen
//             (P,Q,R) — the paper's system.
//   kSystemDs GEN templates; matmul-bearing plans run as BFO or RFO by the
//             §6.2 selection rule (BFO when the main matrix has fewer
//             Spark partitions than its block-grid dimensions).
//   kMatFast  folded element-wise chains; matmuls broadcast the smaller
//             operand.
//   kDistMe   no fusion; matmuls use CuboidMM (a single-node CFO plan),
//             everything else is an operator-at-a-time stage.
//
// Two execution paths share all policy code:
//   real      block-level execution of the physical operators (numeric
//             results, measured communication/flops);
//   analytic  closed-form stage statistics from the cost model — used to
//             run paper-scale experiments in milliseconds.  Matrices are
//             carried as metadata descriptors.
//
// Elapsed time always comes from the Simulator's cluster model; OutOfMemory
// and TimedOut surface in the report exactly like the paper's O.O.M./T.O.
// table cells.

#ifndef FUSEME_ENGINE_ENGINE_H_
#define FUSEME_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/optimizer.h"
#include "fusion/planners.h"
#include "ops/fused_operator.h"
#include "runtime/distributed_matrix.h"
#include "runtime/simulator.h"
#include "telemetry/event_journal.h"
#include "telemetry/prediction.h"
#include "verify/diagnostic.h"

namespace fuseme {

class Tracer;
class MetricsRegistry;  // telemetry/metrics.h

enum class SystemMode {
  kFuseMe,
  kSystemDs,
  kMatFast,
  kDistMe,
  /// TensorFlow with XLA (paper §6.5): element-wise chains fuse (the XLA
  /// fusion pass); matrix multiplications run data-parallel with the
  /// smaller operand broadcast to every instance.
  kTensorFlow,
};
std::string_view SystemModeName(SystemMode mode);

/// Physical operator selection for a plan.  kAuto applies the SystemMode's
/// policy; the explicit values force one operator (used by the Fig. 12
/// benchmark, which compares BFO/RFO/CFO on the same plan).  kCpmm is
/// SystemDS's k-partitioned shuffle matmul — a (1,1,R) cuboid with the
/// smallest memory-feasible R — used when neither broadcast nor
/// replication fits.
enum class OperatorKind { kAuto, kCfo, kBfo, kRfo, kCpmm };
/// Stable display names — "CFO", "BFO", "RFO", "cpmm" ("?" for kAuto) —
/// used by stage labels, trace spans, journal events, and the CompiledPlan
/// JSON schema.
std::string_view OperatorKindName(OperatorKind kind);

/// How the engine recovers from OutOfMemory (DESIGN.md section 13).  The
/// default preserves the paper's semantics: a stage that runs out of
/// memory reports O.O.M. exactly like the experiment tables.
struct RecoveryOptions {
  /// Climb the OOM degradation ladder instead of failing the run: first
  /// degrade BFO/RFO to the optimizer-chosen CFO, then re-optimize the
  /// cuboid under a shrinking modeled budget (finer partitions, less
  /// memory per task), then fall back to the (1,1,R) cpmm shuffle
  /// operator.  At most kMaxDegradationsPerStage rungs per stage; past
  /// that, or when no rung is left, the last attempt's OutOfMemory
  /// surfaces unchanged.  Off by default so O.O.M. cells reproduce.
  bool degrade_on_oom = false;
};

/// Ladder length: rungs tried per stage before the last attempt's
/// OutOfMemory is surfaced unchanged.
inline constexpr int kMaxDegradationsPerStage = 6;

/// Engine-owned flight recorder (DESIGN.md section 17).  Both default to
/// off, so a default engine builds no journal.
struct ObservabilityOptions {
  /// Journal capacity in events; 0 disables the journal.
  std::int64_t journal_capacity = 0;
  /// Install the fatal-log hook that dumps the journal's last events to
  /// stderr when a FUSEME_CHECK fails.  Requires the journal.  Process-
  /// global (last attach wins), hence opt-in.
  bool crash_dump = false;
};

struct EngineOptions {
  SystemMode system = SystemMode::kFuseMe;
  ClusterConfig cluster;
  /// true: metadata-only analytic execution (no numeric block data).
  bool analytic = false;
  /// Skew-aware cuboid splits (see CuboidOptions::balance_sparsity).
  /// Real-mode only: the analytic path models aggregate totals, which
  /// balancing does not change.
  bool balance_sparsity = false;
  /// Optional span sink (not owned): when set, the engine records a span
  /// per stage and the physical operators record spans per work item;
  /// export with Tracer::WriteChromeJson.  See DESIGN.md section 10.
  Tracer* tracer = nullptr;
  /// Optional metrics sink (not owned): when set, the whole pipeline
  /// (parser, planner, optimizer, verifier, runtime, kernels) records
  /// counters/gauges/histograms into it — see telemetry/metric_names.h and
  /// DESIGN.md section 12.  Null disables with no hot-path cost.
  MetricsRegistry* metrics = nullptr;
  /// Engine-owned flight recorder (see ObservabilityOptions), shared by
  /// every copy of the engine and freed with the last one.
  ObservabilityOptions observability;
  /// How much static plan verification runs before/while executing
  /// (verify/plan_verifier.h, DESIGN.md section 11).  kPlanner checks the
  /// DAG, every plan, and the stage graph up front; kParanoid re-checks
  /// each chosen cuboid against the optimizer's own memory estimate
  /// before the stage runs.  Diagnostics fail the run with
  /// StatusCode::kInternal and land in ExecutionReport.
  VerifyLevel verify = VerifyLevel::kPlanner;
  /// How a stage that runs out of memory recovers (see RecoveryOptions).
  RecoveryOptions recovery;

  /// Checks the options for structural validity: cluster shape, budgets,
  /// bandwidths, time and overlap factors (NaN rejected), and
  /// contradictory flags (balance_sparsity in analytic mode).
  /// Engine::Create rejects invalid options with this status.
  Status Validate() const;
};

/// One rung of the OOM degradation ladder actually taken while a stage
/// recovered: the stage moved from the `from` configuration to `to`
/// because of `cause` (the OutOfMemory message that fired).
struct DegradationEvent {
  std::string stage_label;
  std::string from;  // e.g. "CFO (4,3,1)"
  std::string to;    // e.g. "CFO (8,6,1)" or "cpmm (1,1,5)"
  std::string cause;

  bool operator==(const DegradationEvent&) const = default;
};

struct ExecutionReport {
  Status status;
  double elapsed_seconds = 0.0;
  std::int64_t consolidation_bytes = 0;
  std::int64_t aggregation_bytes = 0;
  std::int64_t flops = 0;
  std::int64_t max_task_memory = 0;
  std::vector<StageStats> stages;
  /// Per-stage predicted-vs-actual telemetry (one entry per attempted
  /// stage, in execution order; see telemetry/prediction.h).  Feed to
  /// BuildPredictionReport / FormatPredictionTable.
  std::vector<StageTelemetry> telemetry;
  /// Invariant violations the PlanVerifier found (empty on clean runs).
  /// Non-empty implies status is kInternal and execution never started
  /// (or, at kParanoid, stopped before the offending stage).
  std::vector<VerifierDiagnostic> verifier_diagnostics;
  std::string plan_description;

  /// OOM degradation rungs taken, in the order they fired (DESIGN.md
  /// section 13); empty on clean runs.
  std::vector<DegradationEvent> degradations;

  std::int64_t total_bytes() const {
    return consolidation_bytes + aggregation_bytes;
  }
  bool ok() const { return status.ok(); }
  /// One-line outcome: "3.2 min, 17.3 GB shuffled, 12 stages" (plus
  /// ", N degradations" when the ladder fired) or the failure code
  /// ("O.O.M." / "T.O.").
  std::string Summary() const;
};

class CompiledPlan;         // engine/compiled_plan.h
struct CompiledStageTable;  // engine/compiled_plan.h
struct PlanDescription;     // engine/solver_registry.h
struct SolverEnv;           // engine/solver_registry.h

class Engine {
 public:
  /// The only way to build an engine.  Rejects invalid options
  /// (EngineOptions::Validate) with InvalidArgument.
  static Result<Engine> Create(EngineOptions options);

  const EngineOptions& options() const { return options_; }
  const CostModel& cost_model() const { return model_; }

  /// The engine-owned flight recorder, or null when
  /// observability.journal_capacity is 0.
  EventJournal* journal() const { return journal_.get(); }

  /// Generates this system's fusion plan set for `dag`.
  FusionPlanSet MakePlans(const Dag& dag) const;

  struct RunResult {
    ExecutionReport report;
    /// Root-node values of dag.outputs() (meta descriptors in analytic
    /// mode).  Empty when execution failed.
    std::map<NodeId, DistributedMatrix> outputs;

    /// Passthroughs to the report.
    bool ok() const { return report.ok(); }
    const Status& status() const { return report.status; }
    std::string Summary() const { return report.Summary(); }
  };

  // --- Compile-once / execute-many: the one way to run (DESIGN.md
  // section 18) ---

  /// Runs the full planning pipeline exactly once — planner, verifier,
  /// per-stage solver resolution, base cost-model predictions — and
  /// freezes the result (with an owned copy of the DAG) into a reusable
  /// CompiledPlan.  Compilation itself always succeeds; planning and
  /// verification failures are frozen into the artifact and surface from
  /// Execute.
  Result<CompiledPlan> Compile(const Dag& dag) const;

  /// Compile against a caller-supplied plan set (e.g. the single
  /// full-query plan of §6.2), optionally forcing the physical operator.
  /// The plans are rebuilt over the artifact's own DAG copy; malformed plans
  /// (out-of-range members, leaf members, roots outside the member set)
  /// are rejected with InvalidArgument instead of aborting.
  Result<CompiledPlan> CompileWithPlans(
      const Dag& dag, const FusionPlanSet& plans,
      OperatorKind forced = OperatorKind::kAuto) const;

  /// Replays a compiled artifact against `inputs`: no re-planning, no
  /// solver re-resolution, and no re-verification unless the artifact was
  /// compiled unverified or the level is kParanoid.  Rejects — via
  /// CompiledPlan::CheckCompatible, before any stage runs or any event is
  /// emitted — an artifact compiled for a different system/mode/cluster,
  /// or inputs whose shape/sparsity class differs from what the artifact
  /// was compiled for.  In analytic mode missing leaves are synthesized
  /// as descriptors from the DAG metadata.
  RunResult Execute(const CompiledPlan& plan,
                    const std::map<NodeId, BlockedMatrix>& inputs) const;

  /// Plans `dag` and reports, per stage, every registered stage solver's
  /// applicability verdict (the precise precondition it rejects on) and
  /// modeled cost — the decision Compile would freeze, without freezing
  /// or executing anything.
  PlanDescription Describe(const Dag& dag) const;

  /// Cost-model prediction for running `plan` as `kind`: chosen cuboid
  /// plus NetEst/AggBytes/ComEst/MemEst (telemetry/prediction.h).  Fails
  /// with OutOfMemory when no cuboid fits the task budget (CFO/cpmm) —
  /// exactly the cases where execution could not proceed either.
  /// When the stage's bound `inputs` are available, their partitioning
  /// refines the narrow-dependency model (a same-shaped input only skips
  /// the shuffle where its owner task coincides with the consuming task);
  /// without them, inputs are assumed grid-partitioned over the cluster.
  /// `budget_factor` scales the modeled per-task budget the CFO cuboid
  /// search runs under (the OOM degradation ladder passes < 1 to force
  /// finer partitions); 1.0 is the configured budget.
  Result<StagePrediction> PredictStage(const PartialPlan& plan,
                                       OperatorKind kind,
                                       const FusedInputs* inputs = nullptr,
                                       double budget_factor = 1.0) const;

 private:
  /// Builds the journal the (validated) options ask for.
  explicit Engine(EngineOptions options);

  /// Solver-facing view of this engine's configuration.  `silent` drops
  /// the metric/journal sinks: used where a resolution or search merely
  /// probes (PredictStage dispatch, Describe) and must not inflate the
  /// fuseme_solver_* / optimizer accounting.
  SolverEnv MakeSolverEnv(bool silent = false) const;

  /// Operator the current SystemMode uses for `plan`.  `bound_matrices`
  /// are the plan's matrix-valued external input ids, ascending — the id
  /// set any successful run binds, so compile-time selection matches what
  /// the execution path historically chose from its live bindings.
  OperatorKind PickOperator(const PartialPlan& plan,
                            const std::vector<NodeId>& bound_matrices) const;

  /// The compile half shared by Compile / CompileWithPlans: verification
  /// (cached into the table) plus per-stage operator selection, solver
  /// resolution, and base predictions.
  CompiledStageTable CompileStages(const Dag& dag, const FusionPlanSet& plans,
                                   OperatorKind forced) const;

  /// The execute half: replays a compiled stage table against `inputs`
  /// through RunStages, bracketed by the run-start event and the one
  /// finish step (fuseme_engine_runs_total{status} and the run-finish
  /// event) that every exit of RunStages goes through.
  RunResult ExecuteCompiled(
      const Dag& dag, const FusionPlanSet& plans,
      const CompiledStageTable& table,
      const std::map<NodeId, BlockedMatrix>& inputs) const;
  /// Verification replay, input checks and the stage loop of
  /// ExecuteCompiled; returns early on the first failure.
  RunResult RunStages(const Dag& dag, const FusionPlanSet& plans,
                      const CompiledStageTable& table,
                      const std::map<NodeId, BlockedMatrix>& inputs) const;

  /// Fills `stats` from the prediction's closed forms (plus the engine's
  /// narrow-dependency and output-write adjustments) and returns the
  /// descriptor output.
  Result<DistributedMatrix> RunPlanAnalytic(const PartialPlan& plan,
                                            OperatorKind kind,
                                            const StagePrediction& pred,
                                            StageStats* stats) const;

  /// One rung up the OOM degradation ladder from the failed attempt at
  /// (`kind`, `failed`, `budget_factor`): the next operator/prediction to
  /// try, or the error when the ladder is exhausted (callers then surface
  /// the original OutOfMemory).
  struct DegradationStep {
    OperatorKind kind;
    StagePrediction pred;
    double budget_factor;
    std::string action;  // "shrink_cuboid" | "cpmm"
  };
  Result<DegradationStep> NextDegradation(const PartialPlan& plan,
                                          OperatorKind kind,
                                          const StagePrediction& failed,
                                          const FusedInputs* inputs,
                                          double budget_factor) const;

  EngineOptions options_;
  CostModel model_;
  /// Engine-owned flight recorder, shared so Engine stays copyable; its
  /// deleter detaches the crash dump.  Null when disabled.
  std::shared_ptr<EventJournal> journal_;
};

}  // namespace fuseme

#endif  // FUSEME_ENGINE_ENGINE_H_
