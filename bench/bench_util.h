// Shared helpers for the experiment harnesses: paper-style cell formatting
// (numbers, "O.O.M.", "T.O."), simple aligned tables, and a machine-readable
// JSON result sink (BENCH_<name>.json) for tracking runs over time.

#ifndef FUSEME_BENCH_BENCH_UTIL_H_
#define FUSEME_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace fuseme::bench {

/// Engine::Create for a harness's fixed options; a rejection is a bug in
/// the harness, so it exits with the status.
inline Engine CreateEngine(EngineOptions options) {
  Result<Engine> engine = Engine::Create(std::move(options));
  if (!engine.ok()) {
    std::fprintf(stderr, "invalid engine options: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine).value();
}

/// Compiles `dag` with the engine's planner and executes it once.
inline Engine::RunResult CompileAndExecute(
    const Engine& engine, const Dag& dag,
    const std::map<NodeId, BlockedMatrix>& inputs) {
  Result<CompiledPlan> plan = engine.Compile(dag);
  if (!plan.ok()) {
    Engine::RunResult rejected;
    rejected.report.status = plan.status();
    return rejected;
  }
  return engine.Execute(*plan, inputs);
}

/// Compiles `plans` over `dag` (forcing `forced`) and executes the
/// artifact once; a CompileWithPlans rejection is the result's status.
inline Engine::RunResult CompileAndExecute(
    const Engine& engine, const Dag& dag, const FusionPlanSet& plans,
    const std::map<NodeId, BlockedMatrix>& inputs, OperatorKind forced) {
  Result<CompiledPlan> plan = engine.CompileWithPlans(dag, plans, forced);
  if (!plan.ok()) {
    Engine::RunResult rejected;
    rejected.report.status = plan.status();
    return rejected;
  }
  return engine.Execute(*plan, inputs);
}

/// Writes `tracer`'s spans to TRACE_<name>.json (Chrome trace-event JSON)
/// in the working directory, next to the BENCH_<name>.json result sink.
/// Open with chrome://tracing or https://ui.perfetto.dev.
inline bool WriteTraceJson(const std::string& bench_name,
                           const Tracer& tracer) {
  const std::string path = "TRACE_" + bench_name + ".json";
  if (!tracer.WriteChromeJson(path)) return false;
  std::printf("wrote %s (%zu spans)\n", path.c_str(), tracer.size());
  return true;
}

/// Formats an execution outcome the way the paper's figures label bars:
/// elapsed seconds, or the failure marker.
inline std::string ElapsedCell(const ExecutionReport& report) {
  if (report.status.IsOutOfMemory()) return "O.O.M.";
  if (report.status.IsTimedOut()) return "T.O.";
  if (!report.status.ok()) return "ERR";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", report.elapsed_seconds);
  return buf;
}

/// Same for communication cost in GB.
inline std::string BytesCell(const ExecutionReport& report) {
  if (report.status.IsOutOfMemory()) return "O.O.M.";
  if (report.status.IsTimedOut()) return "T.O.";
  if (!report.status.ok()) return "ERR";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(report.total_bytes()) / 1e9);
  return buf;
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline void PrintRule(std::size_t cells, int width = 14) {
  std::printf("%s\n",
              std::string(cells * static_cast<std::size_t>(width), '-')
                  .c_str());
}

/// One measured configuration of a benchmark binary.
struct BenchRecord {
  std::string name;  // e.g. "dense_gemm_2048" or "cfo_real_mode"
  /// Free-form configuration key/values (thread count, shapes, mode...).
  std::vector<std::pair<std::string, std::string>> config;
  double elapsed_seconds = 0.0;
  std::int64_t bytes = 0;  // communication (or data touched) in bytes
  std::int64_t flops = 0;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes `records` to BENCH_<bench_name>.json in the working directory:
///   {"benchmark": "...", "results": [{"name": ..., "config": {...},
///    "elapsed_seconds": ..., "bytes": ..., "flops": ...}, ...]}
/// When `metrics_json` is non-empty it must be a pre-rendered JSON value
/// (e.g. MetricsSnapshot::ToJson()) and is embedded verbatim under a
/// trailing "metrics_snapshot" key — and it is *guarded*: the snapshot
/// must parse back and pass CheckMetricsConsistency, so a harness never
/// ships a BENCH_*.json with a corrupt or self-contradictory snapshot.
/// Returns false (after printing the reason) when the file is not
/// writable or the embedded snapshot fails the guard; bench mains
/// propagate that as a non-zero exit.
inline bool WriteBenchJson(const std::string& bench_name,
                           const std::vector<BenchRecord>& records,
                           const std::string& metrics_json = "") {
  const std::string path = "BENCH_" + bench_name + ".json";
  if (!metrics_json.empty()) {
    Result<MetricsSnapshot> snapshot = ParseMetricsJson(metrics_json);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s: embedded metrics snapshot unparsable: %s\n",
                   path.c_str(), snapshot.status().ToString().c_str());
      return false;
    }
    if (Status consistent = CheckMetricsConsistency(*snapshot);
        !consistent.ok()) {
      std::fprintf(stderr, "%s: metrics consistency check failed: %s\n",
                   path.c_str(), consistent.ToString().c_str());
      return false;
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"benchmark\": \"" << JsonEscape(bench_name)
      << "\",\n  \"results\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << JsonEscape(r.name)
        << "\", \"config\": {";
    for (std::size_t c = 0; c < r.config.size(); ++c) {
      out << (c == 0 ? "" : ", ") << "\"" << JsonEscape(r.config[c].first)
          << "\": \"" << JsonEscape(r.config[c].second) << "\"";
    }
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.6f", r.elapsed_seconds);
    out << "}, \"elapsed_seconds\": " << elapsed << ", \"bytes\": " << r.bytes
        << ", \"flops\": " << r.flops << "}";
  }
  out << "\n  ]";
  if (!metrics_json.empty()) {
    out << ",\n  \"metrics_snapshot\": " << metrics_json;
  }
  out << "\n}\n";
  std::printf("wrote %s (%zu results)\n", path.c_str(), records.size());
  return true;
}

/// A BenchRecord for an engine run (elapsed = modeled cluster seconds).
inline BenchRecord RecordFor(
    std::string name, const ExecutionReport& report,
    std::vector<std::pair<std::string, std::string>> config = {}) {
  BenchRecord r;
  r.name = std::move(name);
  r.config = std::move(config);
  r.config.emplace_back("status", report.status.ok()
                                      ? "ok"
                                      : std::string(report.status.ToString()));
  r.elapsed_seconds = report.elapsed_seconds;
  r.bytes = report.total_bytes();
  r.flops = report.flops;
  return r;
}

}  // namespace fuseme::bench

#endif  // FUSEME_BENCH_BENCH_UTIL_H_
