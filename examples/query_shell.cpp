// query_shell: type a DML-like matrix expression, get the fusion plans and
// modeled execution reports of all four systems for it.
//
//   $ ./build/examples/query_shell "X * log(U %*% t(V) + 1e-8)"
//   $ ./build/examples/query_shell            # uses the default NMF query
//
// Matrices available to queries (paper-scale, metadata-only execution):
//   X: 100000x100000 sparse (d=0.001)     U, V: 100000x2000 dense
//   W: 2000x100000 dense                  S: 100000x1 dense

#include <cstdio>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

int main(int argc, char** argv) {
  const std::string text =
      argc > 1 ? argv[1] : "X * log(U %*% t(V) + 1e-8)";

  std::map<std::string, MatrixShape> symbols = {
      {"X", {100000, 100000, 10000000}},
      {"U", {100000, 2000, -1}},
      {"V", {100000, 2000, -1}},
      {"W", {2000, 100000, -1}},
      {"S", {100000, 1, -1}},
  };

  auto parsed = ParseQuery(text, symbols);
  if (!parsed.ok()) {
    std::printf("%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n\nDAG:\n%s\n",
              ExprToString(*parsed->dag, parsed->root).c_str(),
              DagToString(*parsed->dag).c_str());

  for (SystemMode mode :
       {SystemMode::kFuseMe, SystemMode::kSystemDs, SystemMode::kMatFast,
        SystemMode::kDistMe}) {
    EngineOptions options;
    options.system = mode;
    options.analytic = true;  // paper-default modeled cluster
    Result<Engine> engine = Engine::Create(options);
    if (!engine.ok()) {
      std::printf("%-10s engine rejected: %s\n", SystemModeName(mode).data(),
                  engine.status().ToString().c_str());
      continue;
    }
    Result<CompiledPlan> compiled = engine->Compile(*parsed->dag);
    if (!compiled.ok()) {
      std::printf("%-10s compile failed: %s\n", SystemModeName(mode).data(),
                  compiled.status().ToString().c_str());
      continue;
    }
    auto run = engine->Execute(*compiled, {});
    std::printf("%-10s %-34s", SystemModeName(mode).data(),
                run.report.Summary().c_str());
    std::printf("  [%zu plan(s):", compiled->plans().plans.size());
    for (const PartialPlan& p : compiled->plans().plans) {
      std::printf(" %lld", static_cast<long long>(p.size()));
    }
    std::printf(" ops]\n");
  }
  std::printf(
      "\n(elapsed/bytes are modeled on the paper's 8-node cluster; run the\n"
      " engine in real mode to execute numerically — see quickstart.cpp)\n");
  return 0;
}
