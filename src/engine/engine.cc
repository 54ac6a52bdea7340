#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/compiled_plan.h"
#include "engine/solver_registry.h"
#include "fusion/sparsity_analysis.h"
#include "matrix/block.h"
#include "ops/fused_operator.h"
#include "telemetry/event_names.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "verify/plan_verifier.h"

namespace fuseme {

namespace {

const char* RunStatusLabel(const Status& status) {
  if (status.ok()) return "ok";
  if (status.IsOutOfMemory()) return "out_of_memory";
  if (status.IsTimedOut()) return "timed_out";
  return "error";
}

/// Mirrors a finished stage's accounting into the engine-wide metric
/// families (telemetry/metric_names.h).  `pred` supplies the MemEst the
/// stage was admitted under; an actual per-task high-water above it counts
/// as a memory overrun.
void RecordStageMetrics(MetricsRegistry* metrics, const StageStats& stats,
                        double wall_seconds, const StagePrediction& pred) {
  if (metrics == nullptr) return;
  metrics->GetCounter(metric_names::kStages)->Increment();
  metrics->GetCounter(metric_names::kStageTasks)
      ->Add(std::max<std::int64_t>(stats.num_tasks, 0));
  metrics
      ->GetCounter(metric_names::kStageShuffleBytes,
                   {{"cause", "consolidation"}})
      ->Add(std::max<std::int64_t>(stats.consolidation_bytes, 0));
  metrics
      ->GetCounter(metric_names::kStageShuffleBytes,
                   {{"cause", "aggregation"}})
      ->Add(std::max<std::int64_t>(stats.aggregation_bytes, 0));
  metrics->GetCounter(metric_names::kStageFlops)
      ->Add(std::max<std::int64_t>(stats.flops, 0));
  metrics->GetHistogram(metric_names::kStageSeconds, DefaultTimeBoundaries())
      ->Observe(wall_seconds);
  metrics->GetGauge(metric_names::kTaskMemoryBytes)
      ->Set(static_cast<double>(stats.max_task_memory));
  if (pred.present &&
      static_cast<double>(stats.max_task_memory) > pred.mem_per_task) {
    metrics->GetCounter(metric_names::kStageMemoryOverruns)->Increment();
  }
}

}  // namespace

std::string_view OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kCfo:
      return "CFO";
    case OperatorKind::kBfo:
      return "BFO";
    case OperatorKind::kRfo:
      return "RFO";
    case OperatorKind::kCpmm:
      return "cpmm";
    case OperatorKind::kAuto:
      break;
  }
  return "?";
}

std::string_view SystemModeName(SystemMode mode) {
  switch (mode) {
    case SystemMode::kFuseMe:
      return "FuseME";
    case SystemMode::kSystemDs:
      return "SystemDS";
    case SystemMode::kMatFast:
      return "MatFast";
    case SystemMode::kDistMe:
      return "DistME";
    case SystemMode::kTensorFlow:
      return "TensorFlow";
  }
  return "?";
}

std::string ExecutionReport::Summary() const {
  if (status.IsOutOfMemory()) return "O.O.M. (" + status.message() + ")";
  if (status.IsTimedOut()) return "T.O. (" + status.message() + ")";
  if (!status.ok()) return status.ToString();
  std::string out = HumanSeconds(elapsed_seconds) + ", " +
                    HumanBytes(static_cast<double>(total_bytes())) +
                    " shuffled, " + std::to_string(stages.size()) + " stages";
  if (!degradations.empty()) {
    out += ", " + std::to_string(degradations.size()) + " degradation" +
           (degradations.size() == 1 ? "" : "s");
  }
  return out;
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), model_(options_.cluster) {
  const ObservabilityOptions& obs = options_.observability;
  if (obs.journal_capacity > 0) {
    // One steady-clock epoch for every sink: the tracer's when tracing is
    // on, so journal timestamps correlate with TRACE_*.json spans by
    // subtraction.
    journal_.reset(
        new EventJournal(obs.journal_capacity,
                         options_.tracer != nullptr
                             ? options_.tracer->epoch()
                             : std::chrono::steady_clock::now()),
        // The last copy of the engine detaches the hook it attached.
        [crash_dump = obs.crash_dump](EventJournal* journal) {
          if (crash_dump) AttachJournalCrashDump(nullptr);
          delete journal;
        });
    if (obs.crash_dump) AttachJournalCrashDump(journal_.get());
  }
}

Result<Engine> Engine::Create(EngineOptions options) {
  FUSEME_RETURN_IF_ERROR(options.Validate());
  return Engine(std::move(options));
}

SolverEnv Engine::MakeSolverEnv(bool silent) const {
  SolverEnv env;
  env.model = &model_;
  env.balance_sparsity = options_.balance_sparsity;
  env.metrics = silent ? nullptr : options_.metrics;
  env.journal = silent ? nullptr : journal_.get();
  return env;
}

FusionPlanSet Engine::MakePlans(const Dag& dag) const {
  const bool verify = options_.verify != VerifyLevel::kOff;
  PlanVerifier verifier(&model_);
  verifier.set_metrics(options_.metrics);
  const auto plan_begin = std::chrono::steady_clock::now();

  FusionPlanSet set;
  switch (options_.system) {
    case SystemMode::kFuseMe: {
      CfgPlanner planner(&model_);
      planner.set_metrics(options_.metrics);
      if (!verify) {
        set = planner.Plan(dag);
        break;
      }
      // Verified path: check every PartialPlan the exploration and
      // exploitation phases emit, not just the finalized set.  CFG
      // candidates grow from matmul seeds, so require_matmul holds for
      // them (final sets legitimately add matmul-free singletons).
      auto check = [&](const std::vector<PartialPlan>& candidates) {
        for (const PartialPlan& p : candidates) {
          std::vector<VerifierDiagnostic> d =
              verifier.VerifyPlan(dag, p, /*require_matmul=*/true);
          set.diagnostics.insert(set.diagnostics.end(), d.begin(), d.end());
        }
      };
      std::vector<PartialPlan> candidates = planner.ExplorationPhase(dag);
      check(candidates);
      std::vector<PartialPlan> refined =
          planner.ExploitationPhase(dag, std::move(candidates));
      check(refined);
      FusionPlanSet finalized = FinalizePlanSet(dag, std::move(refined),
                                                "CFG(explore+exploit)");
      set.plans = std::move(finalized.plans);
      set.description = std::move(finalized.description);
      break;
    }
    case SystemMode::kSystemDs:
      set = GenPlanner().Plan(dag);
      break;
    case SystemMode::kMatFast:
    case SystemMode::kTensorFlow:
      set = FoldedPlanner().Plan(dag);
      break;
    case SystemMode::kDistMe:
      set = NoFusionPlanner().Plan(dag);
      break;
  }
  if (verify) {
    // Planner-generated sets must cover every operator node exactly once;
    // structural per-plan and stage-graph rules run again in CompileStages
    // (which also accepts caller-supplied, possibly partial, sets).
    std::vector<VerifierDiagnostic> d =
        verifier.VerifyPlanSet(dag, set, /*require_coverage=*/true);
    set.diagnostics.insert(set.diagnostics.end(), d.begin(), d.end());
  }
  if (options_.metrics != nullptr) {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      plan_begin)
            .count();
    options_.metrics
        ->GetHistogram(metric_names::kPlannerWallSeconds,
                       DefaultTimeBoundaries())
        ->Observe(wall);
    options_.metrics->GetCounter(metric_names::kPlannerPlans)
        ->Add(static_cast<std::int64_t>(set.plans.size()));
  }
  if (journal_ != nullptr) {
    journal_->Emit(LogLevel::kInfo, event_names::kPlannerPlans,
                   {{"planner", set.description},
                    {"plans", std::to_string(set.plans.size())}});
  }
  return set;
}

OperatorKind Engine::PickOperator(
    const PartialPlan& plan,
    const std::vector<NodeId>& bound_matrices) const {
  const bool has_matmul = !plan.MatMuls().empty();
  switch (options_.system) {
    case SystemMode::kFuseMe:
    case SystemMode::kDistMe:
      return OperatorKind::kCfo;
    case SystemMode::kMatFast:
    case SystemMode::kTensorFlow:
      // MatFast (and XLA's data-parallel execution) broadcast the smaller
      // matmul operand; folded element-wise chains co-partition inputs.
      return has_matmul ? OperatorKind::kBfo : OperatorKind::kCfo;
    case SystemMode::kSystemDs: {
      if (!has_matmul) return OperatorKind::kCfo;
      // §6.2 selection rule: BFO when the main matrix is repartitioned
      // into fewer Spark partitions than its block-grid dimensions.
      const Dag& dag = plan.dag();
      NodeId main_input = kInvalidNode;
      std::int64_t main_cells = -1;
      for (const NodeId id : bound_matrices) {
        const Node& n = dag.node(id);
        const std::int64_t cells = n.rows * n.cols;
        if (cells > main_cells) {
          main_cells = cells;
          main_input = id;
        }
      }
      if (main_input == kInvalidNode) return OperatorKind::kBfo;
      const Node& main = dag.node(main_input);
      const std::int64_t main_bytes = SizeOf(dag, main_input);
      const std::int64_t bs = options_.cluster.block_size;
      const std::int64_t gi = (main.rows + bs - 1) / bs;
      const std::int64_t gj = (main.cols + bs - 1) / bs;
      const std::int64_t parts =
          EstimateSparkPartitions(main_bytes, gi * gj);
      if (parts >= gi && parts >= gj) return OperatorKind::kRfo;
      // SystemDS only picks the broadcast operator when the side matrices
      // actually fit in a task (mapmm); otherwise it falls back to the
      // replication-based shuffle operator (cpmm/rmm).
      std::int64_t side_bytes = 0;
      for (const NodeId id : bound_matrices) {
        if (id != main_input) side_bytes += SizeOf(dag, id);
      }
      const bool sides_fit =
          side_bytes + main_bytes / options_.cluster.total_tasks() <=
          options_.cluster.task_memory_budget;
      return sides_fit ? OperatorKind::kBfo : OperatorKind::kCpmm;
    }
  }
  return OperatorKind::kCfo;
}

Result<StagePrediction> Engine::PredictStage(const PartialPlan& plan,
                                             OperatorKind kind,
                                             const FusedInputs* inputs,
                                             double budget_factor) const {
  // Resolve silently: NextDegradation probes the ladder through here and
  // repeated probes must not inflate the resolution metrics.
  const SolverEnv silent = MakeSolverEnv(/*silent=*/true);
  const StageSolver* solver =
      SolverRegistry::Global().Resolve(silent, kind, plan);
  if (solver == nullptr) return Status::Internal("unresolved operator kind");
  return solver->Predict(MakeSolverEnv(), plan, inputs, budget_factor);
}

Result<Engine::DegradationStep> Engine::NextDegradation(
    const PartialPlan& plan, OperatorKind kind, const StagePrediction& failed,
    const FusedInputs* inputs, double budget_factor) const {
  // cpmm is the ladder's last rung; there is nothing below it.
  if (kind == OperatorKind::kCpmm) {
    return Status::OutOfMemory(
        "degradation ladder exhausted (already at cpmm) for " +
        plan.ToString());
  }
  // Broadcast/replication operators carry no cuboid to shrink: degrade to
  // the optimizer-chosen CFO, which partitions what BFO/RFO broadcast or
  // replicate wholesale.
  if (kind == OperatorKind::kBfo || kind == OperatorKind::kRfo) {
    Result<StagePrediction> pred =
        PredictStage(plan, OperatorKind::kCfo, inputs, 1.0);
    if (pred.ok()) {
      return DegradationStep{OperatorKind::kCfo, *std::move(pred), 1.0,
                             "shrink_cuboid"};
    }
  } else {
    // CFO: re-optimize under a shrinking modeled budget until the search
    // picks a different (finer) cuboid.
    double factor = budget_factor;
    while (factor > 1.0 / 1024.0) {
      factor *= 0.5;
      Result<StagePrediction> pred =
          PredictStage(plan, OperatorKind::kCfo, inputs, factor);
      if (!pred.ok()) break;  // nothing feasible under the tighter budget
      if (!failed.present || !(pred->cuboid == failed.cuboid)) {
        return DegradationStep{OperatorKind::kCfo, *std::move(pred), factor,
                               "shrink_cuboid"};
      }
    }
    // Halving can jump past every cuboid that still fits: MemEst
    // underestimates the measured per-task peak (about 2x on small
    // cells), so a cuboid just below the failed one's MemEst may complete
    // where the halved budget admits none.  Search there once more.
    if (failed.present) {
      const double below =
          std::nextafter(failed.mem_per_task, 0.0) /
          static_cast<double>(options_.cluster.task_memory_budget);
      Result<StagePrediction> pred =
          PredictStage(plan, OperatorKind::kCfo, inputs, below);
      if (pred.ok() && !(pred->cuboid == failed.cuboid)) {
        return DegradationStep{OperatorKind::kCfo, *std::move(pred), below,
                               "shrink_cuboid"};
      }
    }
  }
  // Final rung: the (1,1,R) shuffle matmul, feasible only for plans whose
  // output merges coordinate-wise.
  if (!plan.MatMuls().empty() && CuboidSupportsKSplit(plan)) {
    Result<StagePrediction> pred =
        PredictStage(plan, OperatorKind::kCpmm, inputs, 1.0);
    if (pred.ok()) {
      return DegradationStep{OperatorKind::kCpmm, *std::move(pred), 1.0,
                             "cpmm"};
    }
  }
  return Status::OutOfMemory("degradation ladder exhausted for " +
                             plan.ToString());
}

Result<DistributedMatrix> Engine::RunPlanAnalytic(const PartialPlan& plan,
                                                  OperatorKind kind,
                                                  const StagePrediction& pred,
                                                  StageStats* stats) const {
  const Dag& dag = plan.dag();
  const ClusterConfig& cluster = options_.cluster;
  const Node& root = dag.node(plan.root());

  auto make_output = [&]() {
    BlockedMatrix meta = BlockedMatrix::MakeMeta(
        root.rows, root.cols, root.nnz, cluster.block_size);
    // Mirror the real executor's output partitioning so downstream
    // analytic predictions see the partition counts real mode would.
    return DistributedMatrix::Create(std::move(meta), PartitionScheme::kGrid,
                                     std::max(pred.num_tasks, 1));
  };

  // A matmul-bearing stage shuffle-writes its output for downstream
  // stages (wide dependency); element-wise stages hand their output over
  // as a narrow dependency.
  const std::int64_t output_write =
      plan.MatMuls().empty() ? 0 : SizeOf(dag, plan.root());

  stats->num_tasks = pred.num_tasks;
  stats->consolidation_bytes = static_cast<std::int64_t>(pred.net_bytes);
  stats->aggregation_bytes =
      static_cast<std::int64_t>(pred.agg_bytes) + output_write;
  stats->flops = static_cast<std::int64_t>(pred.flops);
  stats->max_task_memory = static_cast<std::int64_t>(pred.mem_per_task);

  switch (kind) {
    case OperatorKind::kCfo:
      // The prediction already models the cell-stage narrow-dependency
      // consolidation (see PredictStage); nothing more to adjust.
      return make_output();
    case OperatorKind::kRfo: {
      if (pred.mem_per_task >
          static_cast<double>(cluster.task_memory_budget)) {
        return Status::OutOfMemory("RFO exceeds the per-task budget on " +
                                   plan.ToString());
      }
      return make_output();
    }
    case OperatorKind::kCpmm:
      return make_output();
    case OperatorKind::kBfo: {
      const InputSplit split = SplitPlanInputs(plan);
      if (pred.mem_per_task >
          static_cast<double>(cluster.task_memory_budget)) {
        return Status::OutOfMemory(
            "BFO broadcast of " +
            HumanBytes(static_cast<double>(split.side_bytes)) +
            " side matrices exceeds the per-task budget on " +
            plan.ToString());
      }
      return make_output();
    }
    case OperatorKind::kAuto:
      break;
  }
  return Status::Internal("unresolved operator kind");
}

Engine::RunResult Engine::ExecuteCompiled(
    const Dag& dag, const FusionPlanSet& plans, const CompiledStageTable& table,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  if (options_.tracer != nullptr) options_.tracer->NameCurrentThread("driver");
  if (journal_ != nullptr) {
    journal_->Emit(
        LogLevel::kInfo, event_names::kRunStart,
        {{"system", std::string(SystemModeName(options_.system))},
         {"mode", options_.analytic ? "analytic" : "real"},
         {"plans", std::to_string(plans.plans.size())}});
  }
  RunResult out = RunStages(dag, plans, table, inputs);
  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter(metric_names::kEngineRuns,
                     {{"status", RunStatusLabel(out.report.status)}})
        ->Increment();
  }
  if (journal_ != nullptr) {
    journal_->Emit(
        out.report.status.ok() ? LogLevel::kInfo : LogLevel::kError,
        event_names::kRunFinish,
        {{"status", RunStatusLabel(out.report.status)},
         {"elapsed_seconds", std::to_string(out.report.elapsed_seconds)},
         {"stages", std::to_string(out.report.stages.size())}});
  }
  return out;
}

Engine::RunResult Engine::RunStages(
    const Dag& dag, const FusionPlanSet& plans, const CompiledStageTable& table,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  RunResult out;
  out.report.plan_description = table.description;

  PlanVerifier verifier(&model_);
  verifier.set_metrics(options_.metrics);
  if (options_.verify != VerifyLevel::kOff) {
    // CompileStages already ran the structural verification and cached the
    // diagnostics in the table; replay them instead of re-verifying on
    // every execute.  A table compiled without the verifier, and a
    // kParanoid engine, still get a full fresh pass here.
    std::vector<VerifierDiagnostic> diags = table.diagnostics;
    if (!table.verified || options_.verify == VerifyLevel::kParanoid) {
      std::vector<VerifierDiagnostic> more =
          verifier.Verify(dag, plans, options_.verify);
      diags.insert(diags.end(), more.begin(), more.end());
    }
    if (!diags.empty()) {
      out.report.status = Status::Internal(
          "plan verification failed (" + std::to_string(diags.size()) +
          " diagnostic" + (diags.size() == 1 ? "" : "s") +
          "): " + diags.front().ToString());
      if (journal_ != nullptr) {
        for (const VerifierDiagnostic& d : diags) {
          journal_->Emit(LogLevel::kError, event_names::kVerifierDiagnostic,
                         {{"rule", d.rule}, {"detail", d.ToString()}});
        }
      }
      out.report.verifier_diagnostics = std::move(diags);
      return out;
    }
  }

  // A table that failed compile-time verification carries no stages (the
  // verify block above surfaces its diagnostics); any other count mismatch
  // means the table and plan set drifted apart.
  if (table.stages.size() != plans.plans.size()) {
    out.report.status = Status::Internal(
        "compiled stage table has " + std::to_string(table.stages.size()) +
        " stage(s) for " + std::to_string(plans.plans.size()) + " plan(s)");
    return out;
  }

  out.report.status =
      CheckInputBlockSizes(dag, inputs, options_.cluster.block_size);
  if (!out.report.status.ok()) return out;

  const SolverEnv solver_env = MakeSolverEnv();
  Simulator sim(options_.cluster);

  std::map<NodeId, DistributedMatrix> materialized;
  for (const auto& [id, m] : inputs) {
    materialized.emplace(
        id, DistributedMatrix::Create(m, PartitionScheme::kGrid,
                                      options_.cluster.total_tasks()));
  }

  Status status;
  int stage_ordinal = -1;
  for (const PartialPlan& plan : plans.plans) {
    ++stage_ordinal;
    // Bind external inputs.
    FusedInputs fin;
    bool inputs_ok = true;
    for (NodeId ext : plan.ExternalInputs()) {
      const Node& n = dag.node(ext);
      if (!n.is_matrix()) continue;
      auto it = materialized.find(ext);
      if (it == materialized.end()) {
        if (options_.analytic) {
          BlockedMatrix meta = BlockedMatrix::MakeMeta(
              n.rows, n.cols, n.nnz, options_.cluster.block_size);
          it = materialized
                   .emplace(ext, DistributedMatrix::Create(
                                     std::move(meta), PartitionScheme::kGrid,
                                     options_.cluster.total_tasks()))
                   .first;
        } else {
          status = Status::InvalidArgument(
              "no matrix bound to leaf v" + std::to_string(ext) + " (" +
              n.name + ")");
          inputs_ok = false;
          break;
        }
      }
      fin[ext] = &it->second;
    }
    if (!inputs_ok) break;

    const CompiledStage& compiled = table.stages[stage_ordinal];
    OperatorKind kind = compiled.kind;
    const StageSolver* solver =
        SolverRegistry::Global().Find(compiled.solver_id);
    FUSEME_CHECK(solver != nullptr)
        << "compiled stage references unknown solver " << compiled.solver_id;
    bool first_attempt = true;

    StageTelemetry telemetry;
    const std::int64_t span_begin =
        options_.tracer ? options_.tracer->NowMicros() : 0;
    const auto host_begin = std::chrono::steady_clock::now();

    // Degradation ladder (DESIGN.md section 13): a stage that fails with
    // OutOfMemory re-runs under a degraded configuration when recovery
    // allows, instead of failing the run.
    double budget_factor = 1.0;
    int rungs = 0;
    Result<DistributedMatrix> result = Status::Internal("unset");
    StageStats stats;
    std::string label;
    for (;;) {
      label = plan.ToString() + " [" +
              std::string(OperatorKindName(kind)) + "]";
      telemetry.label = label;
      telemetry.predicted = StagePrediction{};

      Result<StagePrediction> predr = Status::Internal("unset");
      if (first_attempt) {
        // First attempt: replay the compile-time base prediction and fold
        // in only what the live-bound inputs change — no cuboid search.
        // Identical to a fresh PredictStage at budget 1 by construction
        // (PredictBase + RefinePrediction == Predict).
        first_attempt = false;
        if (compiled.prediction_status.ok()) {
          StagePrediction pred = compiled.prediction;
          solver->RefinePrediction(solver_env, plan, &fin, &pred);
          predr = Result<StagePrediction>(std::move(pred));
        } else {
          predr = compiled.prediction_status;
        }
      } else {
        // Degradation rungs left the compiled configuration behind; fall
        // back to live prediction for the new kind/budget.
        predr = PredictStage(plan, kind, &fin, budget_factor);
      }
      if (predr.ok()) telemetry.predicted = *predr;

      result = predr.ok() ? Status::Internal("unset") : predr.status();
      bool cuboid_ok = true;
      if (predr.ok() && options_.verify == VerifyLevel::kParanoid &&
          (kind == OperatorKind::kCfo || kind == OperatorKind::kCpmm)) {
        // Re-check the chosen cuboid against the same grid bounds, k-split
        // restriction, and MemEst the optimizer selected under; a violation
        // here means the search or the estimate drifted from execution.
        std::vector<VerifierDiagnostic> cuboid_diags =
            verifier.VerifyCuboid(plan, predr->cuboid);
        if (!cuboid_diags.empty()) {
          cuboid_ok = false;
          result = Status::Internal("stage cuboid verification failed: " +
                                    cuboid_diags.front().ToString());
          out.report.verifier_diagnostics.insert(
              out.report.verifier_diagnostics.end(), cuboid_diags.begin(),
              cuboid_diags.end());
        }
      }
      stats = StageStats{};
      stats.label = label;
      if (predr.ok() && cuboid_ok) {
        if (options_.metrics != nullptr) {
          options_.metrics
              ->GetCounter(metric_names::kSolverExecutions,
                           {{"solver", std::string(solver->id())}})
              ->Increment();
        }
        if (options_.analytic) {
          result = RunPlanAnalytic(plan, kind, *predr, &stats);
          telemetry.threads = 1;
        } else {
          StageContext ctx(label, options_.cluster);
          ctx.set_tracer(options_.tracer);
          ctx.set_metrics(options_.metrics);
          result = solver->RunStage(solver_env, plan, *predr, fin, &ctx);
          stats = ctx.Finalize();
          stats.label = label;
          telemetry.threads = ctx.Parallelism();
        }
      }
      if (result.ok() || !result.status().IsOutOfMemory() ||
          !options_.recovery.degrade_on_oom ||
          rungs >= kMaxDegradationsPerStage) {
        break;
      }
      Result<DegradationStep> next = NextDegradation(
          plan, kind, telemetry.predicted, &fin, budget_factor);
      if (!next.ok()) break;  // ladder exhausted: surface the original OOM
      ++rungs;
      DegradationEvent event;
      event.stage_label = label;
      event.from = std::string(OperatorKindName(kind)) +
                   (telemetry.predicted.present
                        ? " " + telemetry.predicted.cuboid.ToString()
                        : "");
      event.to = std::string(OperatorKindName(next->kind)) + " " +
                 next->pred.cuboid.ToString();
      event.cause = result.status().message();
      if (options_.metrics != nullptr) {
        options_.metrics
            ->GetCounter(metric_names::kStageDegradations,
                         {{"action", next->action}})
            ->Increment();
      }
      if (journal_ != nullptr) {
        journal_->Emit(LogLevel::kWarning, event_names::kStageDegraded,
                       {{"stage", label},
                        {"from", event.from},
                        {"to", event.to},
                        {"cause", event.cause}});
      }
      out.report.degradations.push_back(std::move(event));
      kind = next->kind;
      budget_factor = next->budget_factor;
      // The ladder switched configurations: re-resolve the solver for the
      // new kind (recorded as a fresh resolution, like compile time).
      solver = SolverRegistry::Global().Resolve(solver_env, kind, plan);
      FUSEME_CHECK(solver != nullptr);
    }
    telemetry.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_begin)
            .count();
    telemetry.degradations = rungs;

    if (result.ok()) {
      status = sim.CompleteStage(stats, rungs);
      if (status.ok() && !sim.stages().empty()) {
        stats.elapsed_seconds = sim.stages().back().elapsed_seconds;
        if (journal_ != nullptr) {
          // Stage-level commit event on the driver thread — the ordered
          // per-task commit path inside the operators never emits.
          journal_->Emit(
              LogLevel::kInfo, event_names::kStageCommit,
              {{"stage", label},
               {"ordinal", std::to_string(stage_ordinal)},
               {"operator", std::string(OperatorKindName(kind))},
               {"tasks", std::to_string(stats.num_tasks)},
               {"elapsed_seconds", std::to_string(stats.elapsed_seconds)}});
        }
      }
    } else {
      status = result.status();
    }
    telemetry.actual = stats;
    RecordStageMetrics(options_.metrics, stats, telemetry.wall_seconds,
                       telemetry.predicted);

    if (options_.tracer != nullptr) {
      TraceSpan span;
      span.name = label;
      span.category = "stage";
      span.begin_us = span_begin;
      span.end_us = options_.tracer->NowMicros();
      span.tid = options_.tracer->CurrentThreadId();
      span.args.emplace_back("operator", OperatorKindName(kind));
      span.args.emplace_back("status", status.ok()
                                           ? std::string("ok")
                                           : result.ok()
                                                 ? status.ToString()
                                                 : result.status().ToString());
      if (telemetry.predicted.present) {
        span.args.emplace_back("cuboid", telemetry.predicted.cuboid.ToString());
        span.args.emplace_back(
            "predicted_net_bytes",
            std::to_string(static_cast<std::int64_t>(
                telemetry.predicted.net_bytes)));
        span.args.emplace_back(
            "predicted_flops",
            std::to_string(
                static_cast<std::int64_t>(telemetry.predicted.flops)));
      }
      span.args.emplace_back("actual_net_bytes",
                             std::to_string(stats.consolidation_bytes));
      span.args.emplace_back("actual_agg_bytes",
                             std::to_string(stats.aggregation_bytes));
      span.args.emplace_back("actual_flops", std::to_string(stats.flops));
      span.args.emplace_back("num_tasks", std::to_string(stats.num_tasks));
      if (rungs > 0) {
        span.args.emplace_back("degradations", std::to_string(rungs));
      }
      options_.tracer->Record(std::move(span));
    }

    out.report.telemetry.push_back(std::move(telemetry));
    if (!result.ok()) break;
    materialized.emplace(plan.root(), std::move(*result));
    if (!status.ok()) break;  // timed out
  }

  out.report.status = status;
  out.report.elapsed_seconds = sim.elapsed_seconds();
  out.report.stages = sim.stages();
  for (const StageStats& s : out.report.stages) {
    out.report.consolidation_bytes += s.consolidation_bytes;
    out.report.aggregation_bytes += s.aggregation_bytes;
    out.report.flops += s.flops;
    out.report.max_task_memory =
        std::max(out.report.max_task_memory, s.max_task_memory);
  }
  if (status.ok()) {
    for (NodeId output : dag.outputs()) {
      auto it = materialized.find(output);
      if (it != materialized.end()) {
        out.outputs.emplace(output, std::move(it->second));
      }
    }
  }
  return out;
}

namespace {

/// The plan's matrix-valued external input ids, ascending — the id set a
/// successful run binds, in the order the historical std::map-keyed
/// PickOperator iterated them.
std::vector<NodeId> BoundMatrixIds(const Dag& dag, const PartialPlan& plan) {
  std::vector<NodeId> bound;
  for (NodeId ext : plan.ExternalInputs()) {
    if (dag.node(ext).is_matrix()) bound.push_back(ext);
  }
  std::sort(bound.begin(), bound.end());
  return bound;
}

}  // namespace

CompiledStageTable Engine::CompileStages(const Dag& dag,
                                         const FusionPlanSet& plans,
                                         OperatorKind forced) const {
  CompiledStageTable table;
  // Both entry points populate the description: MakePlans-produced sets
  // carry the planner's own, caller-assembled sets get a synthesized one.
  table.description =
      !plans.description.empty()
          ? plans.description
          : "caller-supplied (" + std::to_string(plans.plans.size()) +
                " plan" + (plans.plans.size() == 1 ? "" : "s") + ")";
  table.diagnostics = plans.diagnostics;
  if (options_.verify != VerifyLevel::kOff) {
    // Structural verification of everything the table will replay: planner
    // diagnostics carried in the set, DAG consistency, per-plan region
    // legality + subspace soundness, and the lowered stage graph.  The
    // result is cached in the table so Execute can replay it.
    PlanVerifier verifier(&model_);
    verifier.set_metrics(options_.metrics);
    std::vector<VerifierDiagnostic> more =
        verifier.Verify(dag, plans, options_.verify);
    table.diagnostics.insert(table.diagnostics.end(), more.begin(),
                             more.end());
    table.verified = true;
    if (!table.diagnostics.empty()) {
      // Execute fails on these diagnostics before touching any stage;
      // resolving solvers for a rejected plan set would only mint
      // misleading fuseme.solver.chosen events on corrupt plans.
      return table;
    }
  }

  const SolverEnv env = MakeSolverEnv();
  table.stages.reserve(plans.plans.size());
  for (const PartialPlan& plan : plans.plans) {
    CompiledStage stage;
    stage.kind = forced == OperatorKind::kAuto
                     ? PickOperator(plan, BoundMatrixIds(dag, plan))
                     : forced;
    const StageSolver* solver =
        SolverRegistry::Global().Resolve(env, stage.kind, plan);
    FUSEME_CHECK(solver != nullptr);
    stage.solver_id = std::string(solver->id());
    stage.refine_cell =
        stage.kind == OperatorKind::kCfo && plan.MatMuls().empty();
    Result<StagePrediction> base = solver->PredictBase(env, plan, 1.0);
    if (base.ok()) {
      stage.prediction = *std::move(base);
    } else {
      stage.prediction_status = base.status();
    }
    if (journal_ != nullptr) {
      std::vector<std::pair<std::string, std::string>> fields = {
          {"stage", plan.ToString()},
          {"solver", stage.solver_id},
          {"operator", std::string(OperatorKindName(stage.kind))}};
      if (stage.prediction_status.ok()) {
        fields.emplace_back("cost_seconds",
                            std::to_string(stage.prediction.cost_seconds));
      }
      journal_->Emit(LogLevel::kInfo, event_names::kSolverChosen,
                     std::move(fields));
    }
    table.stages.push_back(std::move(stage));
  }
  return table;
}

Result<CompiledPlan> Engine::Compile(const Dag& dag) const {
  CompiledPlan compiled;
  compiled.dag_ = std::make_unique<Dag>(dag);
  compiled.plans_ = MakePlans(*compiled.dag_);
  compiled.table_ =
      CompileStages(*compiled.dag_, compiled.plans_, OperatorKind::kAuto);
  compiled.system_ = options_.system;
  compiled.forced_ = OperatorKind::kAuto;
  compiled.analytic_ = options_.analytic;
  compiled.verify_ = options_.verify;
  compiled.cluster_ = options_.cluster;
  return compiled;
}

Result<CompiledPlan> Engine::CompileWithPlans(const Dag& dag,
                                              const FusionPlanSet& plans,
                                              OperatorKind forced) const {
  CompiledPlan compiled;
  compiled.dag_ = std::make_unique<Dag>(dag);
  // Rebuild the caller's plans over the artifact's own DAG copy so the
  // artifact stays self-contained.  The PartialPlan constructor aborts on
  // malformed plans; pre-validate so callers get a Status instead.
  compiled.plans_.description = plans.description;
  compiled.plans_.diagnostics = plans.diagnostics;
  int index = -1;
  for (const PartialPlan& plan : plans.plans) {
    ++index;
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("plan #" + std::to_string(index) + " " +
                                     why);
    };
    if (plan.members().empty()) return malformed("has no members");
    for (NodeId member : plan.members()) {
      if (member < 0 || member >= dag.num_nodes()) {
        return malformed("member v" + std::to_string(member) +
                         " is out of range");
      }
      const Node& n = dag.node(member);
      if (n.kind == OpKind::kInput || n.kind == OpKind::kScalar) {
        return malformed("member v" + std::to_string(member) +
                         " is a leaf, not an operator");
      }
    }
    if (!plan.Contains(plan.root())) {
      return malformed("root v" + std::to_string(plan.root()) +
                       " is not a member");
    }
    compiled.plans_.plans.emplace_back(compiled.dag_.get(), plan.members(),
                                       plan.root());
  }
  compiled.table_ = CompileStages(*compiled.dag_, compiled.plans_, forced);
  compiled.system_ = options_.system;
  compiled.forced_ = forced;
  compiled.analytic_ = options_.analytic;
  compiled.verify_ = options_.verify;
  compiled.cluster_ = options_.cluster;
  return compiled;
}

Engine::RunResult Engine::Execute(
    const CompiledPlan& plan,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  const Status compat = plan.CheckCompatible(options_, inputs);
  if (!compat.ok()) {
    RunResult out;
    out.report.plan_description = plan.description();
    out.report.status = compat;
    return out;
  }
  return ExecuteCompiled(plan.dag(), plan.plans(), plan.table(), inputs);
}

PlanDescription Engine::Describe(const Dag& dag) const {
  const FusionPlanSet plans = MakePlans(dag);
  // Silent env: describing must not inflate the fuseme_solver_* /
  // optimizer accounting a later Compile of the same DAG would record.
  const SolverEnv env = MakeSolverEnv(/*silent=*/true);
  const SolverRegistry& registry = SolverRegistry::Global();
  PlanDescription desc;
  desc.planner = plans.description;
  desc.stages.reserve(plans.plans.size());
  for (const PartialPlan& plan : plans.plans) {
    StageDescription stage;
    stage.label = plan.ToString();
    stage.kind = PickOperator(plan, BoundMatrixIds(dag, plan));
    const StageSolver* chosen = registry.Resolve(env, stage.kind, plan);
    for (const StageSolver* s : registry.solvers()) {
      SolverCandidate c;
      c.solver_id = std::string(s->id());
      c.applicability = s->IsApplicable(env, plan);
      if (c.applicability.ok()) {
        c.cost_seconds = s->Cost(env, plan);
        c.feasible = std::isfinite(c.cost_seconds);
      }
      c.chosen = s == chosen;
      stage.candidates.push_back(std::move(c));
    }
    desc.stages.push_back(std::move(stage));
  }
  return desc;
}

}  // namespace fuseme
