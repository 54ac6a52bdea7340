// Stable flight-recorder event-id catalogue (see DESIGN.md section 17).
//
// Every event the engine emits into an EventJournal uses one of these
// ids, the same contract metric_names.h gives instruments and the
// verifier gives rule ids — dashboards, tests, and journal-file readers
// reference them without string drift, and `fuseme_lint` (rules
// lint-event-literal / lint-event-dead) rejects inline ids and dead
// catalogue entries.  Ids follow the shape `fuseme.<subsystem>.<event>`
// (lowercase, dot-separated, at least two segments after the prefix);
// the dotted prefix keeps them disjoint from the `fuseme_` metric
// namespace.

#ifndef FUSEME_TELEMETRY_EVENT_NAMES_H_
#define FUSEME_TELEMETRY_EVENT_NAMES_H_

namespace fuseme::event_names {

// --- Engine lifecycle ---
/// An Execute of a compiled plan started; payload: system, mode, plans.
inline constexpr char kRunStart[] = "fuseme.engine.run_start";
/// The run returned; payload: status, elapsed_seconds, stages.
inline constexpr char kRunFinish[] = "fuseme.engine.run_finish";

// --- Planner / optimizer decisions ---
/// MakePlans produced its final plan set; payload: planner, plans.
inline constexpr char kPlannerPlans[] = "fuseme.planner.plans_ready";
/// The (P,Q,R) search chose a cuboid for a plan; payload: plan, cuboid,
/// cost_seconds (or feasible=false when nothing fit the budget).
inline constexpr char kOptimizerChoice[] = "fuseme.optimizer.cuboid_chosen";

// --- Stage-solver registry ---
/// Engine::Compile resolved a stage to a registry solver; payload:
/// stage, solver, operator, cost_seconds (absent when the compile-time
/// prediction failed).
inline constexpr char kSolverChosen[] = "fuseme.solver.chosen";

// --- Verifier ---
/// A plan-verification diagnostic failed the run; one event per
/// diagnostic, payload: rule, detail.
inline constexpr char kVerifierDiagnostic[] = "fuseme.verifier.diagnostic";

// --- Stages ---
/// A stage committed into the simulator's timeline; payload: stage,
/// ordinal, operator, tasks, elapsed_seconds.
inline constexpr char kStageCommit[] = "fuseme.stage.commit";

// --- OOM degradation ladder ---
/// A stage took one rung down the OOM degradation ladder; payload:
/// stage, from, to, cause.  The id keeps its historical `fault`
/// subsystem segment so journal readers need no migration.
inline constexpr char kStageDegraded[] = "fuseme.fault.degradation";

}  // namespace fuseme::event_names

#endif  // FUSEME_TELEMETRY_EVENT_NAMES_H_
