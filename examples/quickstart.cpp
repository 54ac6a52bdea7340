// Quickstart: build a matrix query, run it on the FuseME engine, and read
// the execution report.
//
//   $ ./build/examples/quickstart
//
// The query is the paper's running example, O = X * log(U × Vᵀ + eps),
// with a sparse X — the pattern where cuboid-based fusion shines.

#include <cstdio>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

int main(int argc, char** argv) {
  if (argc > 1) {
    std::printf("usage: %s\n", argv[0]);
    return 1;
  }

  // --- 1. Describe the query as an expression DAG. -----------------------
  const std::int64_t n = 96, k = 16, block = 16;
  Dag dag;
  Expr X = Expr::Input(&dag, "X", n, n, /*nnz=*/n * n / 10);
  Expr U = Expr::Input(&dag, "U", n, k);
  Expr V = Expr::Input(&dag, "V", n, k);
  Expr O = (X * Log(MatMul(U, T(V)) + 1e-8)).MarkOutput();

  std::printf("Query: %s\n\nDAG:\n%s\n", ExprToString(dag, O.id()).c_str(),
              DagToString(dag).c_str());

  // --- 2. Bind input data. ----------------------------------------------
  SparseMatrix x = RandomSparse(n, n, 0.1, /*seed=*/1, 1.0, 5.0);
  DenseMatrix u = RandomDense(n, k, /*seed=*/2, 0.5, 1.5);
  DenseMatrix v = RandomDense(n, k, /*seed=*/3, 0.5, 1.5);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[X.id()] = BlockedMatrix::FromSparse(x, block);
  inputs[U.id()] = BlockedMatrix::FromDense(u, block);
  inputs[V.id()] = BlockedMatrix::FromDense(v, block);

  // --- 3. Configure a modeled cluster and run. ---------------------------
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 4;
  options.cluster.tasks_per_node = 4;
  options.cluster.block_size = block;
  // Create validates the options: a bad configuration is a Status here,
  // never an abort.
  Result<Engine> engine = Engine::Create(options);
  if (!engine.ok()) {
    std::printf("engine rejected: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // Compile once (planner + verifier + solver resolution), then execute
  // the frozen artifact — re-Execute with new same-shaped inputs to skip
  // all of that planning work on later runs.
  Result<CompiledPlan> plan = engine->Compile(dag);
  if (!plan.ok()) {
    std::printf("compile failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  Engine::RunResult run = engine->Execute(*plan, inputs);
  if (!run.ok()) {
    std::printf("execution failed: %s\n", run.Summary().c_str());
    return 1;
  }

  // --- 4. Inspect the result and the report. -----------------------------
  DenseMatrix result = run.outputs.at(O.id()).blocks().ToDense();
  DenseMatrix expected = *ReferenceEval(
      dag, O.id(), {{X.id(), x.ToDense()}, {U.id(), u}, {V.id(), v}});
  const double diff = DenseMatrix::MaxAbsDiff(result, expected);
  std::printf("max |distributed - single-node| = %.3g\n", diff);

  std::printf("\nExecution report (%s):\n", run.Summary().c_str());
  for (const StageStats& stage : run.report.stages) {
    std::printf("  %-48s %4d tasks  %10s moved  %12lld flops\n",
                stage.label.c_str(), stage.num_tasks,
                HumanBytes(static_cast<double>(stage.total_bytes())).c_str(),
                static_cast<long long>(stage.flops));
  }
  return 0;
}
