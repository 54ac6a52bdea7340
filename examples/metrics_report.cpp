// Metrics report: run a named workload (or an ad-hoc expression) with a
// MetricsRegistry attached to the whole pipeline, then print the per-stage
// run profile and export the registry as JSON.
//
//   $ ./build/examples/metrics_report [workload] [--analytic] [--check]
//
// Workloads: gnmf (default), nmf, als, kl, pca, or any expression over the
// symbols X (sparse n x n), U (n x k), V (n x k), S (n x 1), e.g.
//
//   $ ./build/examples/metrics_report 'sum((X != 0) * (X - U %*% t(V))^2)'
//
// Output:
//   * the per-stage profile table (time %, shuffle bytes, FLOPs, threads,
//     predicted-vs-actual verdict) on stdout,
//   * metrics_report.json — the RunReport (with the embedded snapshot),
//   * metrics_report.journal.json — the engine's flight-recorder events
//     (EventJournal::DumpJson).
//
// --check additionally round-trips the JSON snapshot through the parser,
// runs the registry consistency invariants, and parses the journal file
// back, requiring its run-start and run-finish events; any failure exits
// non-zero (this is the scripts/check.sh smoke step).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "fuseme.h"

using namespace fuseme;  // NOLINT — example brevity

namespace {

constexpr std::int64_t kN = 160, kK = 32, kBlock = 16;

/// Builds the requested workload's DAG (heap-allocated so the handles the
/// builders return can be dropped uniformly).
Result<std::unique_ptr<Dag>> BuildWorkload(const std::string& name,
                                           MetricsRegistry* metrics) {
  if (name == "gnmf") {
    GnmfQuery q = BuildGnmf(kN, kN, kK, kN * kN / 10);
    return std::make_unique<Dag>(std::move(q.dag));
  }
  if (name == "nmf") {
    NmfPattern q = BuildNmfPattern(kN, kN, kK, kN * kN / 10);
    return std::make_unique<Dag>(std::move(q.dag));
  }
  if (name == "als") {
    AlsLossQuery q = BuildAlsLoss(kN, kN, kK, kN * kN / 10);
    return std::make_unique<Dag>(std::move(q.dag));
  }
  if (name == "kl") {
    KlLossQuery q = BuildKlLoss(kN, kN, kK, kN * kN / 10);
    return std::make_unique<Dag>(std::move(q.dag));
  }
  if (name == "pca") {
    PcaPattern q = BuildPcaPattern(kN, kN);
    return std::make_unique<Dag>(std::move(q.dag));
  }
  // Anything else is an expression over the documented symbol table.
  std::map<std::string, MatrixShape> symbols;
  symbols["X"] = {kN, kN, kN * kN / 10};
  symbols["U"] = {kN, kK, -1};
  symbols["V"] = {kN, kK, -1};
  symbols["S"] = {kN, 1, -1};
  FUSEME_ASSIGN_OR_RETURN(ParsedQuery parsed,
                          ParseQuery(name, symbols, metrics));
  return std::move(parsed.dag);
}

/// Random real inputs for every matrix leaf, shaped by the DAG metadata
/// (a leaf whose nnz covers under half its cells becomes sparse).
std::map<NodeId, BlockedMatrix> MakeInputs(const Dag& dag) {
  std::map<NodeId, BlockedMatrix> inputs;
  for (NodeId id = 0; id < dag.num_nodes(); ++id) {
    const Node& n = dag.node(id);
    if (n.kind != OpKind::kInput || !n.is_matrix()) continue;
    const double cells = static_cast<double>(n.rows * n.cols);
    const double density = cells > 0 ? static_cast<double>(n.nnz) / cells : 1;
    const std::uint64_t seed = 7 + static_cast<std::uint64_t>(id);
    inputs.emplace(id, density < 0.5
                           ? RandomSparseBlocked(n.rows, n.cols, density,
                                                 kBlock, seed, 1.0, 5.0)
                           : RandomDenseBlocked(n.rows, n.cols, kBlock, seed,
                                                0.5, 1.5));
  }
  return inputs;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Parses a journal dump back and requires the events that bracket a run.
Status CheckJournalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  FUSEME_ASSIGN_OR_RETURN(std::vector<JournalEvent> events,
                          ParseJournalJson(text.str()));
  for (std::string_view id :
       {event_names::kRunStart, event_names::kRunFinish}) {
    if (std::none_of(events.begin(), events.end(),
                     [&](const JournalEvent& e) { return e.id == id; })) {
      return Status::InvalidArgument(path + " holds no " + std::string(id) +
                                     " event");
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "gnmf";
  bool check = false;
  bool analytic = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--analytic") == 0) {
      analytic = true;
    } else {
      workload = argv[i];
    }
  }

  MetricsRegistry registry;
  AttachLogMetrics(&registry);
  Tracer tracer;
  tracer.SetProcessName("metrics_report");

  Result<std::unique_ptr<Dag>> dag = BuildWorkload(workload, &registry);
  if (!dag.ok()) {
    std::fprintf(stderr, "error: %s\n", dag.status().ToString().c_str());
    AttachLogMetrics(nullptr);
    return 1;
  }

  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = kBlock;
  options.analytic = analytic;
  options.tracer = &tracer;
  options.metrics = &registry;
  options.observability.journal_capacity = 1024;
  Result<Engine> created = Engine::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "error: %s\n", created.status().ToString().c_str());
    AttachLogMetrics(nullptr);
    return 1;
  }
  Engine& engine = *created;

  std::printf("workload: %s (%s mode)\n", workload.c_str(),
              analytic ? "analytic" : "real");
  const auto begin = std::chrono::steady_clock::now();
  Result<CompiledPlan> plan = engine.Compile(**dag);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    AttachLogMetrics(nullptr);
    return 1;
  }
  Engine::RunResult run = engine.Execute(*plan, MakeInputs(**dag));
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  std::printf("execution: %s (host %.3fs)\n\n",
              run.report.Summary().c_str(), host_seconds);

  MetricsSnapshot snapshot = registry.Snapshot();
  AttachLogMetrics(nullptr);

  const RunReport report =
      BuildRunReport(run.report.status, run.report.elapsed_seconds,
                     run.report.telemetry, std::move(snapshot));
  std::printf("%s\n", report.FormatTable().c_str());

  if (!WriteFile("metrics_report.json", report.ToJson())) return 1;
  if (!WriteFile("metrics_report.journal.json", engine.journal()->DumpJson())) {
    return 1;
  }
  std::printf("wrote metrics_report.json (%zu samples) and "
              "metrics_report.journal.json\n",
              report.metrics.samples.size());

  if (check) {
    Result<MetricsSnapshot> reparsed =
        ParseMetricsJson(report.metrics.ToJson());
    if (!reparsed.ok() || !(*reparsed == report.metrics)) {
      std::fprintf(stderr, "JSON snapshot round-trip FAILED: %s\n",
                   reparsed.ok() ? "snapshot mismatch"
                                 : reparsed.status().ToString().c_str());
      return 1;
    }
    if (Status s = CheckMetricsConsistency(report.metrics); !s.ok()) {
      std::fprintf(stderr, "metrics consistency FAILED: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (Status s = CheckJournalFile("metrics_report.journal.json"); !s.ok()) {
      std::fprintf(stderr, "journal check FAILED: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("checks: JSON round-trip, registry consistency, and "
                "journal file all passed\n");
  }
  return run.report.ok() ? 0 : 1;
}
