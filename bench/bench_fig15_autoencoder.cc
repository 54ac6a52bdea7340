// Figure 15: AutoEncoder (2-layer encoder/decoder) — elapsed time of one
// epoch for SystemDS, TensorFlow(XLA), and FuseME:
//  (a) input n×n sweep at batch 1024, (h1,h2) = (500,2);
//  (b) the same at batch 512;
//  (c) batch-size sweep on the 10K×10K input;
//  (d) (h1,h2) parameter sweep at batch 1024.
//
// One epoch = (n / batch) identical mini-batch steps; each step executes
// the full forward+backward DAG.

#include <array>
#include <cstdio>

#include "bench_util.h"
#include "workloads/autoencoder.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

Tracer g_tracer;  // stage spans; exported to TRACE_fig15_autoencoder.json

std::string EpochCell(SystemMode mode, std::int64_t n, std::int64_t batch,
                      std::int64_t h1, std::int64_t h2) {
  AutoEncoderQuery q = BuildAutoEncoder(batch, n, h1, h2);
  EngineOptions options;
  options.system = mode;
  options.analytic = true;
  options.tracer = &g_tracer;
  ExecutionReport report =
      CompileAndExecute(CreateEngine(options), q.dag, {}).report;
  if (report.status.IsOutOfMemory()) return "O.O.M.";
  if (report.status.IsTimedOut()) return "T.O.";
  if (!report.ok()) return "ERR";
  const double steps =
      static_cast<double>(n) / static_cast<double>(batch);
  const double epoch_seconds = report.elapsed_seconds * steps;
  if (epoch_seconds > options.cluster.timeout_seconds) {
    return "T.O.";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", epoch_seconds);
  return buf;
}

void Sweep(const char* title,
           const std::vector<std::array<std::int64_t, 4>>& points,
           const char* x_name) {
  std::printf("--- %s ---\n", title);
  PrintRow({x_name, "SystemDS", "TensorFlow", "FuseME"});
  PrintRule(4);
  for (const auto& [n, batch, h1, h2] : points) {
    std::string label;
    if (std::string(x_name) == "n") {
      label = std::to_string(n / 1000) + "K";
    } else if (std::string(x_name) == "batch") {
      label = std::to_string(batch);
    } else {
      label = "(" + std::to_string(h1) + "," + std::to_string(h2) + ")";
    }
    PrintRow({label, EpochCell(SystemMode::kSystemDs, n, batch, h1, h2),
              EpochCell(SystemMode::kTensorFlow, n, batch, h1, h2),
              EpochCell(SystemMode::kFuseMe, n, batch, h1, h2)});
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Figure 15: AutoEncoder, one-epoch elapsed (sec) ===\n\n");
  Sweep("Fig 15(a): input n x n, batch 1024, h1=500, h2=2",
        {{{1000, 1024, 500, 2}},
         {{10000, 1024, 500, 2}},
         {{100000, 1024, 500, 2}}},
        "n");
  Sweep("Fig 15(b): input n x n, batch 512, h1=500, h2=2",
        {{{1000, 512, 500, 2}},
         {{10000, 512, 500, 2}},
         {{100000, 512, 500, 2}}},
        "n");
  Sweep("Fig 15(c): batch sweep, input 10K x 10K, h1=500, h2=2",
        {{{10000, 512, 500, 2}},
         {{10000, 1024, 500, 2}},
         {{10000, 2048, 500, 2}},
         {{10000, 4096, 500, 2}}},
        "batch");
  Sweep("Fig 15(d): (h1,h2) sweep, input 10K x 10K, batch 1024",
        {{{10000, 1024, 500, 2}},
         {{10000, 1024, 1000, 4}},
         {{10000, 1024, 2000, 8}},
         {{10000, 1024, 5000, 20}}},
        "(h1,h2)");
  WriteTraceJson("fig15_autoencoder", g_tracer);
  return 0;
}
