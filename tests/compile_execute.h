// Test-only shorthand for the one public path, Engine::Create →
// Compile/CompileWithPlans → Execute, for tests that run a DAG once.

#ifndef FUSEME_TESTS_COMPILE_EXECUTE_H_
#define FUSEME_TESTS_COMPILE_EXECUTE_H_

#include <map>
#include <utility>

#include "common/logging.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"

namespace fuseme {

/// Engine::Create for options the test knows are valid; a rejection is a
/// bug in the test itself and aborts the binary with the status.
inline Engine MakeEngine(EngineOptions options) {
  Result<Engine> engine = Engine::Create(std::move(options));
  FUSEME_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Compiles `dag` with the engine's planner and executes it once.
inline Engine::RunResult CompileAndExecute(
    const Engine& engine, const Dag& dag,
    const std::map<NodeId, BlockedMatrix>& inputs) {
  Result<CompiledPlan> plan = engine.Compile(dag);
  FUSEME_CHECK(plan.ok()) << plan.status().ToString();
  return engine.Execute(*plan, inputs);
}

/// Compiles `dag` over a caller-supplied plan set and executes it once.
/// A CompileWithPlans rejection comes back as the result's status.
inline Engine::RunResult CompileAndExecute(
    const Engine& engine, const Dag& dag, const FusionPlanSet& plans,
    const std::map<NodeId, BlockedMatrix>& inputs,
    OperatorKind forced = OperatorKind::kAuto) {
  Result<CompiledPlan> plan = engine.CompileWithPlans(dag, plans, forced);
  if (!plan.ok()) {
    Engine::RunResult rejected;
    rejected.report.status = plan.status();
    return rejected;
  }
  return engine.Execute(*plan, inputs);
}

}  // namespace fuseme

#endif  // FUSEME_TESTS_COMPILE_EXECUTE_H_
