// Explain: run a query with full telemetry and print, side by side, what
// the cost model predicted for every stage and what the runtime actually
// charged — plus a Chrome trace of the stage/work-item timeline.
//
//   $ ./build/examples/explain
//
// Output: the chosen fusion plan per stage (with its (P,Q,R) cuboid), the
// predicted-vs-actual table (net / agg / flops / mem with per-dimension
// ratios), and explain_trace.json for chrome://tracing or
// https://ui.perfetto.dev.  The query is the paper's running example,
// O = X * log(U × Vᵀ + eps).

#include <cstdio>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

int main() {
  // --- 1. The query: O = X * log(U x V^T + eps), sparse X. ---------------
  const std::int64_t n = 160, k = 32, block = 16;
  Dag dag;
  Expr X = Expr::Input(&dag, "X", n, n, /*nnz=*/n * n / 10);
  Expr U = Expr::Input(&dag, "U", n, k);
  Expr V = Expr::Input(&dag, "V", n, k);
  Expr O = (X * Log(MatMul(U, T(V)) + 1e-8)).MarkOutput();

  std::printf("Query: %s\n", ExprToString(dag, O.id()).c_str());

  std::map<NodeId, BlockedMatrix> inputs;
  inputs[X.id()] = BlockedMatrix::FromSparse(
      RandomSparse(n, n, 0.1, /*seed=*/1, 1.0, 5.0), block);
  inputs[U.id()] = BlockedMatrix::FromDense(
      RandomDense(n, k, /*seed=*/2, 0.5, 1.5), block);
  inputs[V.id()] = BlockedMatrix::FromDense(
      RandomDense(n, k, /*seed=*/3, 0.5, 1.5), block);

  // --- 2. Run in real mode with a tracer attached. -----------------------
  Tracer tracer;
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = block;
  options.tracer = &tracer;
  Result<Engine> created = Engine::Create(options);
  if (!created.ok()) {
    std::printf("engine rejected: %s\n", created.status().ToString().c_str());
    return 1;
  }
  const Engine& engine = *created;

  // Describe shows every registered solver's verdict per stage — the
  // decision Compile freezes — without running anything.
  const PlanDescription described = engine.Describe(dag);
  std::printf("\nSolver table:\n%s", described.ToString().c_str());

  Result<CompiledPlan> compiled = engine.Compile(dag);
  if (!compiled.ok()) {
    std::printf("compile failed: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  std::printf("\nChosen plan (%s):\n", compiled->description().c_str());
  for (const CompiledStage& stage : compiled->stages()) {
    if (stage.prediction_status.ok()) {
      std::printf("  solver=%-18s %s cuboid=%s  modeled=%s\n",
                  stage.solver_id.c_str(),
                  stage.prediction.operator_kind.c_str(),
                  stage.prediction.cuboid.ToString().c_str(),
                  HumanSeconds(stage.prediction.cost_seconds).c_str());
    } else {
      std::printf("  solver=%-18s (no feasible cuboid: %s)\n",
                  stage.solver_id.c_str(),
                  stage.prediction_status.ToString().c_str());
    }
  }

  Engine::RunResult run = engine.Execute(*compiled, inputs);
  std::printf("\nExecution: %s\n", run.report.Summary().c_str());
  if (!run.report.ok()) return 1;

  // --- 3. Predicted vs actual, per stage. --------------------------------
  std::printf("\n%s", FormatPredictionTable(run.report.telemetry).c_str());

  const PredictionReport report =
      BuildPredictionReport(run.report.telemetry);
  std::printf(
      "\nworst drift across %zu stage(s): max |log2(actual/predicted)| = "
      "%.3f (%s within 4x)\n",
      report.stages.size(), report.max_abs_log2,
      report.WithinFactor(4.0) ? "all ratios" : "NOT all ratios");

  // --- 4. Export the span timeline. --------------------------------------
  if (tracer.WriteChromeJson("explain_trace.json")) {
    std::printf(
        "\nwrote explain_trace.json (%zu spans) — open with "
        "chrome://tracing or https://ui.perfetto.dev\n",
        tracer.size());
  }
  return 0;
}
