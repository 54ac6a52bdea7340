#include "workloads.h"

#include <array>
#include <utility>

#include "cost/cost_model.h"
#include "matrix/generators.h"
#include "runtime/distributed_matrix.h"
#include "workloads/autoencoder.h"
#include "workloads/datasets.h"
#include "workloads/queries.h"

namespace perfbench {

using namespace fuseme;  // NOLINT

namespace {

// Real-mode shapes.  They are scaled so that one Execute of each query set
// takes tens of milliseconds on a 4-core Xeon, enough samples for a tail
// percentile in a ten-second run, while keeping the layer shares each
// workload was chosen for (README.md, "Workloads").
constexpr std::int64_t kNmfN = 1024, kNmfK = 128, kNmfBs = 256;
constexpr double kNmfDensity = 0.01;
constexpr std::int64_t kAeBatch = 512, kAeFeatures = 512, kAeH1 = 256,
                       kAeH2 = 16, kAeBs = 256;
constexpr std::int64_t kGnmfM = 4096, kGnmfK = 128, kGnmfBs = 512;
constexpr double kGnmfDensity = 0.01;
// The dense reference of an 8192x8192 GNMF does not fit; the reference
// check runs a reduced instance drawn from the same generators and seed.
constexpr std::int64_t kGnmfRefM = 1024, kGnmfRefK = 64, kGnmfRefBs = 128;

EngineOptions RealOptions(std::int64_t block_size) {
  EngineOptions options;
  options.system = SystemMode::kFuseMe;
  options.cluster.block_size = block_size;
  return options;
}

EngineOptions AnalyticOptions(SystemMode system, int num_nodes = 8) {
  EngineOptions options;
  options.system = system;
  options.analytic = true;
  options.cluster.num_nodes = num_nodes;
  return options;
}

Query NmfQuery(std::uint64_t seed, std::int64_t n, std::int64_t k,
               std::int64_t bs) {
  SparseMatrix x = RandomSparse(n, n, kNmfDensity, seed, 1.0, 2.0);
  NmfPattern p = BuildNmfPattern(n, n, k, x.nnz());
  Query q;
  q.label = "nmf_masked";
  q.options = RealOptions(bs);
  q.sparse_inputs.emplace(p.X, std::move(x));
  q.dense_inputs.emplace(p.U, RandomDense(n, k, seed + 1, 0.5, 1.5));
  q.dense_inputs.emplace(p.V, RandomDense(n, k, seed + 2, 0.5, 1.5));
  q.dag = std::move(p.dag);
  return q;
}

Query AeQuery(std::uint64_t seed) {
  AutoEncoderQuery p = BuildAutoEncoder(kAeBatch, kAeFeatures, kAeH1, kAeH2);
  Query q;
  q.label = "ae_step";
  q.options = RealOptions(kAeBs);
  q.dense_inputs.emplace(p.X,
                         RandomDense(kAeBatch, kAeFeatures, seed, 0.0, 1.0));
  q.dense_inputs.emplace(
      p.W1, RandomDense(kAeH1, kAeFeatures, seed + 1, -0.05, 0.05));
  q.dense_inputs.emplace(p.W2,
                         RandomDense(kAeH2, kAeH1, seed + 2, -0.1, 0.1));
  q.dense_inputs.emplace(p.W3,
                         RandomDense(kAeH1, kAeH2, seed + 3, -0.1, 0.1));
  q.dense_inputs.emplace(
      p.W4, RandomDense(kAeFeatures, kAeH1, seed + 4, -0.05, 0.05));
  q.dag = std::move(p.dag);
  return q;
}

Query GnmfStep(std::uint64_t seed, std::int64_t m, std::int64_t k,
               std::int64_t bs) {
  SparseMatrix x = RandomSparse(m, m, kGnmfDensity, seed, 1.0, 5.0);
  GnmfQuery p = BuildGnmf(m, m, k, x.nnz());
  Query q;
  q.label = "gnmf_step";
  q.options = RealOptions(bs);
  q.sparse_inputs.emplace(p.X, std::move(x));
  q.dense_inputs.emplace(p.V, RandomDense(m, k, seed + 1, 0.1, 1.0));
  q.dense_inputs.emplace(p.U, RandomDense(k, m, seed + 2, 0.1, 1.0));
  q.dag = std::move(p.dag);
  return q;
}

// --- The paper catalogue (analytic mode, paper scale). ---

/// Cells the paper's figures record as failures (EXPERIMENTS.md); every
/// other cell is expected to complete.  Labels are "<figure> <point>
/// <system>".
const std::map<std::string, std::string>& ExpectedFailures() {
  static const auto& failures = *new std::map<std::string, std::string>{
      // Fig. 14(c,g): MatFast materializes the m×n product V×U.
      {"fig14 YahooMusic/k200 MatFast", "O.O.M."},
      {"fig14 YahooMusic/k1000 MatFast", "O.O.M."},
  };
  return failures;
}

Query CatalogueCell(std::string label, EngineOptions options, Dag dag) {
  Query q;
  const auto it = ExpectedFailures().find(label);
  if (it != ExpectedFailures().end()) q.expected_status = it->second;
  q.label = std::move(label);
  q.options = std::move(options);
  q.dag = std::move(dag);
  return q;
}

/// Fig. 12: SystemDS's BFO/RFO (by the §6.2 partition rule) and FuseME's
/// CFO run the whole query as one fused plan; DistME plans operator at a
/// time.  `with_distme` is false for the node-scaling points, which the
/// figure plots for SystemDS and FuseME only.
void AddFig12Point(const std::string& figure, const SyntheticSpec& spec,
                   int num_nodes, bool with_distme, std::vector<Query>* out) {
  const NmfPattern p = BuildNmfPattern(spec.i, spec.j, spec.k, spec.x_nnz());
  const std::vector<NodeId> members = {p.vT, p.mm, p.add, p.log, p.mul};
  const std::string prefix = figure + " " + spec.label + " ";

  EngineOptions sds = AnalyticOptions(SystemMode::kSystemDs, num_nodes);
  const std::int64_t bs = sds.cluster.block_size;
  const std::int64_t gi = (spec.i + bs - 1) / bs;
  const std::int64_t gj = (spec.j + bs - 1) / bs;
  const std::int64_t parts =
      EstimateSparkPartitions(SizeOf(p.dag, p.X), gi * gj);
  const bool use_bfo = parts < gi || parts < gj;
  Query systemds = CatalogueCell(prefix + "SystemDS", sds, p.dag);
  systemds.plan_members = members;
  systemds.plan_root = p.mul;
  systemds.forced = use_bfo ? OperatorKind::kBfo : OperatorKind::kRfo;
  out->push_back(std::move(systemds));

  if (with_distme) {
    out->push_back(CatalogueCell(
        prefix + "DistME", AnalyticOptions(SystemMode::kDistMe, num_nodes),
        p.dag));
  }

  Query fuseme = CatalogueCell(
      prefix + "FuseME", AnalyticOptions(SystemMode::kFuseMe, num_nodes),
      p.dag);
  fuseme.plan_members = members;
  fuseme.plan_root = p.mul;
  fuseme.forced = OperatorKind::kCfo;
  out->push_back(std::move(fuseme));
}

std::vector<Query> PaperCatalogue() {
  std::vector<Query> cells;
  // Fig. 12(a) stops at n = 250K: the analytic Execute of the 500K and
  // 750K points alone takes 0.3 s, which would bury the compile side this
  // workload measures.
  for (const SyntheticSpec& spec : VaryTwoLargeDimensions()) {
    if (spec.i <= 250000) AddFig12Point("fig12a", spec, 8, true, &cells);
  }
  for (const SyntheticSpec& spec : VaryCommonDimension()) {
    AddFig12Point("fig12b", spec, 8, true, &cells);
  }
  for (const SyntheticSpec& spec : VaryDensity()) {
    AddFig12Point("fig12c", spec, 8, true, &cells);
  }
  for (const char* density : {"0.1", "0.2"}) {
    for (int nodes : {2, 4, 8}) {
      const SyntheticSpec spec{std::string("d") + density + "/" +
                                   std::to_string(nodes) + "n",
                               100000, 100000, 2000, std::stod(density)};
      AddFig12Point("fig12d", spec, nodes, false, &cells);
    }
  }

  const std::array<std::pair<SystemMode, const char*>, 4> gnmf_systems = {{
      {SystemMode::kMatFast, "MatFast"},
      {SystemMode::kSystemDs, "SystemDS"},
      {SystemMode::kDistMe, "DistME"},
      {SystemMode::kFuseMe, "FuseME"},
  }};
  for (std::int64_t k : {200, 1000}) {
    for (const RatingDataset& d : PaperDatasets()) {
      for (const auto& [mode, name] : gnmf_systems) {
        // FuseME on YahooMusic takes 1.2 s per Compile, more than the rest
        // of the catalogue together; a run would get too few compile
        // samples to give a steady median.
        if (d.name == "YahooMusic" && mode == SystemMode::kFuseMe) continue;
        // MatFast has no matrix-chain optimizer: V×U×Uᵀ runs as written.
        const bool chain_opt = mode != SystemMode::kMatFast;
        cells.push_back(CatalogueCell(
            "fig14 " + d.name + "/k" + std::to_string(k) + " " + name,
            AnalyticOptions(mode),
            BuildGnmf(d.users, d.items, k, d.ratings, chain_opt).dag));
      }
    }
  }

  // The distinct Fig. 15 points as {n, batch, h1, h2}: the n sweeps at
  // batch 1024 and 512, then the batch and (h1,h2) sweeps on n = 10K.
  const std::array<std::array<std::int64_t, 4>, 11> ae_points = {{
      {1000, 1024, 500, 2},
      {10000, 1024, 500, 2},
      {100000, 1024, 500, 2},
      {1000, 512, 500, 2},
      {10000, 512, 500, 2},
      {100000, 512, 500, 2},
      {10000, 2048, 500, 2},
      {10000, 4096, 500, 2},
      {10000, 1024, 1000, 4},
      {10000, 1024, 2000, 8},
      {10000, 1024, 5000, 20},
  }};
  const std::array<std::pair<SystemMode, const char*>, 3> ae_systems = {{
      {SystemMode::kSystemDs, "SystemDS"},
      {SystemMode::kTensorFlow, "TensorFlow"},
      {SystemMode::kFuseMe, "FuseME"},
  }};
  for (const auto& [n, batch, h1, h2] : ae_points) {
    for (const auto& [mode, name] : ae_systems) {
      cells.push_back(CatalogueCell(
          "fig15 n" + std::to_string(n) + "/b" + std::to_string(batch) +
              "/h" + std::to_string(h1) + "x" + std::to_string(h2) + " " +
              name,
          AnalyticOptions(mode), BuildAutoEncoder(batch, n, h1, h2).dag));
    }
  }
  return cells;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto& names = *new std::vector<std::string>{
      "nmf_masked", "ae_step", "gnmf_step", "paper_plan"};
  return names;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed,
                  Workload* out) {
  // Each input matrix gets its own generator stream: seed * 16 + index.
  const std::uint64_t base = seed * 16;
  Workload w;
  w.name = name;
  if (name == "nmf_masked") {
    w.queries.push_back(NmfQuery(base, kNmfN, kNmfK, kNmfBs));
    w.check_timed = true;
  } else if (name == "ae_step") {
    w.queries.push_back(AeQuery(base));
    w.check_timed = true;
  } else if (name == "gnmf_step") {
    w.queries.push_back(GnmfStep(base, kGnmfM, kGnmfK, kGnmfBs));
    w.reduced.push_back(GnmfStep(base, kGnmfRefM, kGnmfRefK, kGnmfRefBs));
  } else if (name == "paper_plan") {
    w.analytic = true;
    w.queries = PaperCatalogue();
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::map<NodeId, BlockedMatrix> BlockInputs(const Query& q) {
  const std::int64_t bs = q.options.cluster.block_size;
  std::map<NodeId, BlockedMatrix> blocked;
  for (const auto& [id, m] : q.dense_inputs) {
    blocked.emplace(id, BlockedMatrix::FromDense(m, bs));
  }
  for (const auto& [id, m] : q.sparse_inputs) {
    blocked.emplace(id, BlockedMatrix::FromSparse(m, bs));
  }
  return blocked;
}

Result<CompiledPlan> CompileQuery(const Engine& engine, const Query& q) {
  if (q.plan_members.empty()) return engine.Compile(q.dag);
  FusionPlanSet set;
  set.plans.emplace_back(&q.dag, q.plan_members, q.plan_root);
  return engine.CompileWithPlans(q.dag, set, q.forced);
}

std::string StatusCell(const Status& status) {
  if (status.ok()) return "ok";
  if (status.IsOutOfMemory()) return "O.O.M.";
  if (status.IsTimedOut()) return "T.O.";
  return "ERR: " + status.ToString();
}

}  // namespace perfbench
