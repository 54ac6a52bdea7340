// Stable metric name catalogue (see DESIGN.md section 12).
//
// Every instrument the engine registers uses one of these names, so
// dashboards and tests can reference them without string drift — the same
// contract the verifier gives its rule ids.  Names follow Prometheus
// conventions: `fuseme_` prefix, `_total` suffix on counters, base units
// (bytes, seconds) in the name.

#ifndef FUSEME_TELEMETRY_METRIC_NAMES_H_
#define FUSEME_TELEMETRY_METRIC_NAMES_H_

namespace fuseme::metric_names {

// --- Parser / IR ---
/// Queries handed to ParseQuery.
inline constexpr char kParserQueries[] = "fuseme_parser_queries_total";
/// Queries rejected with a parse or shape error.
inline constexpr char kParserErrors[] = "fuseme_parser_errors_total";
/// DAG nodes built, labeled {kind="input|matmul|..."}.
inline constexpr char kIrNodes[] = "fuseme_ir_nodes_total";

// --- CFG planner ---
/// Candidate plans produced by the exploration phase (Alg. 2).
inline constexpr char kPlannerExplorationCandidates[] =
    "fuseme_planner_exploration_candidates_total";
/// Split positions tried by the exploitation phase (Alg. 3).
inline constexpr char kPlannerSplitAttempts[] =
    "fuseme_planner_split_attempts_total";
/// Splits the exploitation phase actually took (cost improved).
inline constexpr char kPlannerSplits[] = "fuseme_planner_splits_total";
/// Plans kept in the final plan set, labeled {planner=...}.
inline constexpr char kPlannerPlans[] = "fuseme_planner_plans_total";
/// Histogram of MakePlans wall time in seconds.
inline constexpr char kPlannerWallSeconds[] = "fuseme_planner_wall_seconds";

// --- (P,Q,R) optimizer ---
/// Cuboid searches run (one per optimized fused operator).
inline constexpr char kOptimizerSearches[] =
    "fuseme_optimizer_searches_total";
/// Cuboids fully costed.
inline constexpr char kOptimizerEvaluations[] =
    "fuseme_optimizer_evaluations_total";
/// Grid points skipped by the pruned search (enumerated minus costed).
inline constexpr char kOptimizerCuboidsPruned[] =
    "fuseme_optimizer_cuboids_pruned_total";
/// Searches that found no feasible cuboid under the memory budget.
inline constexpr char kOptimizerInfeasible[] =
    "fuseme_optimizer_infeasible_total";

// --- Stage-solver registry (engine/solver_registry.h) ---
/// Solver selections recorded into compiled artifacts, labeled
/// {solver=<solver_names id>}.  One per compiled stage (plus one per
/// degradation rung that re-resolves at execute time), so repeat
/// Engine::Execute calls leave this flat — the bench_compile
/// compile-happens-once assertion rides on it.
inline constexpr char kSolverResolutions[] =
    "fuseme_solver_resolutions_total";
/// IsApplicable rejections while resolving, labeled {solver=...}; the
/// registry falls through to the next (less refined) candidate.
inline constexpr char kSolverRejections[] =
    "fuseme_solver_rejections_total";
/// Stage attempts dispatched through a solver's Run/analytic path,
/// labeled {solver=...}.  Grows with every execute, unlike resolutions.
inline constexpr char kSolverExecutions[] =
    "fuseme_solver_executions_total";

// --- Engine / stages ---
/// Engine runs, labeled {status="ok|out_of_memory|timed_out|error"}.
inline constexpr char kEngineRuns[] = "fuseme_engine_runs_total";
/// Shuffle bytes, labeled {cause="consolidation|aggregation"} (§3.3
/// NetEst split).
inline constexpr char kStageShuffleBytes[] =
    "fuseme_stage_shuffle_bytes_total";
/// Floating-point operations charged by stage accounting.
inline constexpr char kStageFlops[] = "fuseme_stage_flops_total";
/// Tasks launched across all stages.
inline constexpr char kStageTasks[] = "fuseme_stage_tasks_total";
/// Stages executed.
inline constexpr char kStages[] = "fuseme_stages_total";
/// Histogram of per-stage wall time in seconds.
inline constexpr char kStageSeconds[] = "fuseme_stage_seconds";
/// Per-task memory high-water in bytes (gauge; peak = worst task seen).
inline constexpr char kTaskMemoryBytes[] = "fuseme_task_memory_bytes";
/// Stages whose actual per-task memory exceeded the MemEst budget.
inline constexpr char kStageMemoryOverruns[] =
    "fuseme_stage_memory_overrun_total";

// --- Work items / thread pool ---
/// Work items executed by fused operators.
inline constexpr char kWorkItems[] = "fuseme_work_items_total";
/// Histogram of seconds between work-item submission and start.
inline constexpr char kWorkItemQueueWaitSeconds[] =
    "fuseme_work_item_queue_wait_seconds";
/// Histogram of work-item execution seconds.
inline constexpr char kWorkItemSeconds[] = "fuseme_work_item_seconds";
/// Global pool queue depth sampled at work-item start (gauge + peak).
inline constexpr char kThreadPoolQueueDepth[] =
    "fuseme_thread_pool_queue_depth";
/// Global pool worker count (gauge).
inline constexpr char kThreadPoolThreads[] = "fuseme_thread_pool_threads";

// --- Kernels ---
/// FLOPs counted by the kernel evaluator (all node kinds).
inline constexpr char kKernelFlops[] = "fuseme_kernel_flops_total";
/// FLOPs spent in dense GEMM specifically.
inline constexpr char kKernelGemmFlops[] = "fuseme_kernel_gemm_flops_total";
/// Block storage conversions, labeled
/// {direction="sparse_to_dense|dense_to_sparse"}.
inline constexpr char kBlockConversions[] =
    "fuseme_block_conversions_total";
/// Sparse-kernel invocations, labeled {kernel="spmm_sparse_dense|
/// spmm_dense_sparse|spmm_sparse_sparse|transpose_spmm|sddmm|
/// ewise_merge_join"} (DESIGN.md section 15).
inline constexpr char kKernelSparseCalls[] =
    "fuseme_kernel_sparse_calls_total";
/// FLOPs executed inside the sparse kernels (subset of kKernelFlops).
inline constexpr char kKernelSparseFlops[] =
    "fuseme_kernel_sparse_flops_total";
/// Dot-product evaluations (mask non-zeros × k-blocks) in SDDMM.
inline constexpr char kKernelSddmmDots[] =
    "fuseme_kernel_sddmm_dots_total";
/// Sparse-kernel invocations that split over the global thread pool.
inline constexpr char kKernelSparseParallel[] =
    "fuseme_kernel_sparse_parallel_launches_total";
/// Nonzeros in committed output blocks (density numerator).
inline constexpr char kKernelOutputNnz[] = "fuseme_kernel_output_nnz_total";
/// Cells in committed output blocks (density denominator).
inline constexpr char kKernelOutputCells[] =
    "fuseme_kernel_output_cells_total";

// --- OOM degradation ladder (DESIGN.md section 13) ---
/// OOM degradation rungs taken, labeled {action="shrink_cuboid|cpmm"}.
inline constexpr char kStageDegradations[] =
    "fuseme_stage_degradations_total";

// --- Verifier ---
/// Artifacts checked, labeled {artifact="dag|plan|plan_set|stage_graph|cuboid"}.
inline constexpr char kVerifierChecks[] = "fuseme_verifier_checks_total";
/// Diagnostics raised, labeled {rule=<verifier rule id>}.
inline constexpr char kVerifierDiagnostics[] =
    "fuseme_verifier_diagnostics_total";

// --- Logging ---
/// Log messages past the level filter, labeled
/// {level="debug|info|warning|error"}.
inline constexpr char kLogMessages[] = "fuseme_log_messages_total";

}  // namespace fuseme::metric_names

#endif  // FUSEME_TELEMETRY_METRIC_NAMES_H_
