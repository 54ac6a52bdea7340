// FuseME public facade: the one header applications include.
//
//   #include "fuseme.h"
//
//   fuseme::EngineOptions options;  // plain struct; Create validates it
//   FUSEME_ASSIGN_OR_RETURN(fuseme::Engine engine,
//                           fuseme::Engine::Create(options));
//   FUSEME_ASSIGN_OR_RETURN(fuseme::CompiledPlan plan, engine.Compile(dag));
//   auto result = engine.Execute(plan, inputs);  // compile once, run many
//   std::cout << result.Summary() << "\n";
//
// Everything re-exported here is the supported user-facing API: query
// parsing and DAG construction (ir/), matrix generation and I/O
// (matrix/), the engine with its planners, cost model and OOM
// degradation ladder (engine/, cost/, fusion/, runtime/), observability
// (telemetry/), and the paper's workloads (workloads/).  Internal layers
// — kernels, physical operators, the verifier's rule internals — stay
// behind their own headers on purpose; depend on them only from tests.
//
// MIGRATION NOTE (DESIGN.md section 18): the single-shot Engine::Run
// wrappers (planner and caller-plan-set variants), the aborting
// Engine(EngineOptions) constructor and the fluent options builder are
// gone.  Every run is
//
//   Engine::Create(options)          — validate options, build the engine
//   Engine::Describe(dag)            — inspect solver choices, run nothing
//   Engine::Compile(dag)             — plan + verify + resolve, once
//   Engine::CompileWithPlans(...)    — same, over a caller plan set
//   Engine::Execute(plan, inputs)    — replay against fresh inputs
//   CompiledPlan::ToJson/FromJson    — persist across processes
//
// A one-off query is Compile followed by a single Execute.

#ifndef FUSEME_FUSEME_H_
#define FUSEME_FUSEME_H_

// Status/Result error handling, logging, formatting helpers.
#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

// Cost model and the (P,Q,R) cuboid optimizer (paper §3).
#include "cost/cost_model.h"
#include "cost/optimizer.h"

// The engine facade itself, the compile-once/execute-many artifact and
// stage-solver registry (DESIGN.md section 18), plus the single-node
// reference executor.
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "engine/reference.h"
#include "engine/solver_names.h"
#include "engine/solver_registry.h"

// Fusion planners (CFG and the compared systems' strategies, paper §4).
#include "fusion/planners.h"

// Expression IR: builder DSL, parser, DAG, pretty-printer.
#include "ir/dag.h"
#include "ir/expr.h"
#include "ir/parser.h"
#include "ir/printer.h"

// Matrix generation and I/O.
#include "matrix/generators.h"
#include "matrix/matrix_io.h"

// Runtime vocabulary: cluster shape and the simulator.
#include "runtime/cluster_config.h"
#include "runtime/simulator.h"

// Observability: metrics, tracing, predicted-vs-actual telemetry, and
// the flight recorder (DESIGN.md section 17).
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/prediction.h"
#include "telemetry/run_report.h"
#include "telemetry/tracer.h"

// Paper workloads and dataset descriptions (§6.1).
#include "workloads/autoencoder.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

#endif  // FUSEME_FUSEME_H_
