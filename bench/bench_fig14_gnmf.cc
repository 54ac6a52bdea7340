// Figure 14: GNMF (Eq. 6) on MovieLens / Netflix / YahooMusic with factor
// dimension k in {200, 1000}: accumulated elapsed time over 10 iterations
// (a-c, e-g) and data shuffled per iteration (d, h), for MatFast,
// SystemDS, DistME, and FuseME.

#include <cstdio>

#include "bench_util.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

using namespace fuseme;         // NOLINT
using namespace fuseme::bench;  // NOLINT

namespace {

constexpr int kIterations = 10;

Tracer g_tracer;  // stage spans; exported to TRACE_fig14_gnmf.json

struct Cell {
  ExecutionReport report;  // one iteration
  bool times_out_over_run = false;
};

Cell RunOne(SystemMode mode, const RatingDataset& dataset, std::int64_t k) {
  // MatFast has no matrix-chain optimizer: it evaluates V×U×Uᵀ as written.
  const bool chain_opt = mode != SystemMode::kMatFast;
  GnmfQuery q = BuildGnmf(dataset.users, dataset.items, k, dataset.ratings,
                          chain_opt);
  EngineOptions options;
  options.system = mode;
  options.analytic = true;
  options.tracer = &g_tracer;
  Cell cell;
  cell.report = CompileAndExecute(CreateEngine(options), q.dag, {}).report;
  if (cell.report.ok() &&
      cell.report.elapsed_seconds * kIterations >
          options.cluster.timeout_seconds) {
    cell.times_out_over_run = true;  // 10 iterations exceed the horizon
  }
  return cell;
}

std::string AccumulatedCell(const Cell& cell) {
  if (cell.report.status.IsOutOfMemory()) return "O.O.M.";
  if (cell.report.status.IsTimedOut() || cell.times_out_over_run) {
    return "T.O.";
  }
  if (!cell.report.ok()) return "ERR";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f",
                cell.report.elapsed_seconds * kIterations);
  return buf;
}

std::string PerIterBytesCell(const Cell& cell) {
  if (!cell.report.ok()) return AccumulatedCell(cell);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(cell.report.total_bytes()) / 1e9);
  return buf;
}

}  // namespace

int main() {
  const SystemMode systems[] = {SystemMode::kMatFast, SystemMode::kSystemDs,
                                SystemMode::kDistMe, SystemMode::kFuseMe};
  for (std::int64_t k : {200, 1000}) {
    std::printf(
        "=== Figure 14 (k=%lld): GNMF accumulated elapsed over %d "
        "iterations (sec) ===\n",
        static_cast<long long>(k), kIterations);
    PrintRow({"dataset", "MatFast", "SystemDS", "DistME", "FuseME"});
    PrintRule(5);
    std::vector<std::vector<Cell>> cells;
    for (const RatingDataset& dataset : PaperDatasets()) {
      std::vector<Cell> row;
      for (SystemMode mode : systems) {
        row.push_back(RunOne(mode, dataset, k));
      }
      PrintRow({dataset.name, AccumulatedCell(row[0]),
                AccumulatedCell(row[1]), AccumulatedCell(row[2]),
                AccumulatedCell(row[3])});
      cells.push_back(std::move(row));
    }
    std::printf(
        "\n--- Fig 14(%s): data shuffled per iteration (GB) ---\n",
        k == 200 ? "d" : "h");
    PrintRow({"dataset", "MatFast", "SystemDS", "DistME", "FuseME"});
    PrintRule(5);
    for (std::size_t d = 0; d < cells.size(); ++d) {
      PrintRow({PaperDatasets()[d].name, PerIterBytesCell(cells[d][0]),
                PerIterBytesCell(cells[d][1]), PerIterBytesCell(cells[d][2]),
                PerIterBytesCell(cells[d][3])});
    }
    std::printf("\n");
  }
  WriteTraceJson("fig14_gnmf", g_tracer);
  return 0;
}
