// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Closed loop, one caller: every query of the workload is compiled once
// and Executed back to back.  The untraced measurement gives the
// end-to-end metrics; with --trace 1 a second, traced pass (Tracer +
// MetricsRegistry handed to the engine, plus the benchmark's own spans
// and the layer probes) gives the per-layer metrics, and the trace is
// written to <out-dir>/trace-<workload>-seed<n>.json.  The last stdout
// line is the result object {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/compiled_plan.h"
#include "engine/reference.h"
#include "layers.h"
#include "probes.h"
#include "stats.h"
#include "system_info.h"
#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace fuseme;  // NOLINT

/// The load model's thread count; the serial baseline uses one.
constexpr int kThreads = 4;

// Shares of --seconds given to each kind of interleaved sample.  Each kind
// also takes a minimum number of samples, so a run can overshoot on a slow
// machine.
constexpr double kSetupShare = 0.15;
constexpr double kCompileShare = 0.20;
constexpr double kExecuteShare = 0.40;
constexpr double kSerialShare = 0.25;
// With --trace 1 the untraced loops shrink to make room for the traced
// loops and the probes.
constexpr double kTracedScale = 0.5;
constexpr double kTracedCompileShare = 0.05;
constexpr double kTracedExecuteShare = 0.20;
constexpr double kCompileProbeShare = 0.10;
constexpr double kKernelProbeShare = 0.10;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMinCompiles = 5, kMinExecutes = 30, kMinSerial = 10;
constexpr double kCompileBatchSeconds = 0.01;
// The traced run reports medians only, no tail.
constexpr std::size_t kMinTracedExecutes = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Counts operations (one Compile or one Execute) and the failed ones.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

/// What one Execute produced: compared bitwise against the first Execute.
struct Outcome {
  std::string status;
  std::vector<StageStats> stages;
  double modeled_s = 0;
  std::int64_t shuffle_bytes = 0;
  std::int64_t max_task_memory = 0;
  std::map<NodeId, BlockedMatrix> outputs;  // real mode only
};

Outcome Capture(Engine::RunResult run, bool keep_outputs) {
  Outcome o;
  o.status = StatusCell(run.report.status);
  o.stages = std::move(run.report.stages);
  o.modeled_s = run.report.elapsed_seconds;
  o.shuffle_bytes = run.report.total_bytes();
  o.max_task_memory = run.report.max_task_memory;
  if (keep_outputs) {
    for (auto& [id, m] : run.outputs) o.outputs.emplace(id, m.blocks());
  }
  return o;
}

bool SameBits(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

bool SameBlock(const Block& a, const Block& b) {
  if (a.kind() != b.kind() || a.rows() != b.rows() || a.cols() != b.cols() ||
      a.nnz() != b.nnz()) {
    return false;
  }
  if (a.kind() == Block::Kind::kDense) {
    return SameBits(a.dense().data(), b.dense().data(),
                    sizeof(double) * static_cast<std::size_t>(a.size()));
  }
  if (a.kind() == Block::Kind::kSparse) {
    const SparseMatrix &x = a.sparse(), &y = b.sparse();
    return x.row_ptr() == y.row_ptr() && x.col_idx() == y.col_idx() &&
           SameBits(x.values().data(), y.values().data(),
                    sizeof(double) * x.values().size());
  }
  return true;
}

bool SameStage(const StageStats& a, const StageStats& b) {
  return a.label == b.label && a.num_tasks == b.num_tasks &&
         a.consolidation_bytes == b.consolidation_bytes &&
         a.aggregation_bytes == b.aggregation_bytes && a.flops == b.flops &&
         a.max_task_memory == b.max_task_memory &&
         SameBits(&a.elapsed_seconds, &b.elapsed_seconds, sizeof(double));
}

/// Empty when `got` is bitwise identical to `want`, else what differs.
std::string Difference(const Outcome& want, const Outcome& got) {
  if (got.status != want.status) return "status " + got.status;
  if (got.stages.size() != want.stages.size()) return "stage count";
  for (std::size_t i = 0; i < got.stages.size(); ++i) {
    if (!SameStage(got.stages[i], want.stages[i])) {
      return "StageStats of " + got.stages[i].label;
    }
  }
  if (!SameBits(&got.modeled_s, &want.modeled_s, sizeof(double)) ||
      got.shuffle_bytes != want.shuffle_bytes) {
    return "report totals";
  }
  if (got.outputs.size() != want.outputs.size()) return "output count";
  for (const auto& [id, m] : want.outputs) {
    const auto it = got.outputs.find(id);
    if (it == got.outputs.end() || it->second.rows() != m.rows() ||
        it->second.cols() != m.cols() ||
        it->second.grid_rows() != m.grid_rows() ||
        it->second.grid_cols() != m.grid_cols()) {
      return "output shape";
    }
    for (std::int64_t bi = 0; bi < m.grid_rows(); ++bi) {
      for (std::int64_t bj = 0; bj < m.grid_cols(); ++bj) {
        if (!SameBlock(m.block(bi, bj), it->second.block(bi, bj))) {
          return "output values";
        }
      }
    }
  }
  return "";
}

/// One query with its engine, compiled plan and blocked inputs.
struct Prepared {
  const Query* query;
  Engine engine;
  CompiledPlan plan;
  std::map<NodeId, BlockedMatrix> inputs;
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

/// Runs `fn` with the calling thread pinned to the `n`-th CPU it may use
/// (modulo their count), then restores its affinity.  The calling thread
/// runs every single-threaded part of a sample; on a shared host one CPU
/// can be ~1.8x slower than another for minutes (a busy hyperthread
/// sibling), and moving each measure to the next CPU with every sample
/// gives it the same mix of CPUs in every run.
double OnCpu(std::size_t n, const std::function<double()>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return fn();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[n % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
  const double seconds = fn();
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return seconds;
}

/// Creates the engine and compiled plan of `q` over already-blocked
/// inputs.  Failing here means the workload cannot run at all.
Prepared Prepare(const Query& q, int threads, Tracer* tracer,
                 MetricsRegistry* metrics,
                 std::map<NodeId, BlockedMatrix> inputs, Tally* tally) {
  EngineOptions options = q.options;
  options.cluster.local_threads = threads;
  options.tracer = tracer;
  options.metrics = metrics;
  Result<Engine> engine = Engine::Create(options);
  if (!engine.ok()) Fatal(q.label + ": " + engine.status().ToString());
  ++tally->attempted;
  Result<CompiledPlan> plan = CompileQuery(*engine, q);
  if (!plan.ok()) Fatal(q.label + ": " + plan.status().ToString());
  return Prepared{&q, std::move(*engine), std::move(*plan), std::move(inputs)};
}

/// Executes every prepared query once, checking each outcome against the
/// query's expected status.  Returns host seconds spent inside Execute.
double ExecuteAll(std::vector<Prepared>* prepared, bool keep_outputs,
                  Tally* tally, std::vector<Outcome>* outcomes) {
  double seconds = 0;
  std::vector<Engine::RunResult> runs;
  runs.reserve(prepared->size());
  for (Prepared& p : *prepared) {
    const double t0 = NowSeconds();
    runs.push_back(p.engine.Execute(p.plan, p.inputs));
    seconds += NowSeconds() - t0;
  }
  outcomes->clear();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ++tally->attempted;
    outcomes->push_back(Capture(std::move(runs[i]), keep_outputs));
    const Query& q = *(*prepared)[i].query;
    if (outcomes->back().status != q.expected_status) {
      tally->Fail(q.label + ": expected " + q.expected_status + ", got " +
                  outcomes->back().status);
    }
  }
  return seconds;
}

/// Set-up: blocks the inputs, creates the engines, compiles and runs the
/// first Execute of every query.  Returns its host seconds.
double SetUp(const Workload& w, Tracer* tracer, MetricsRegistry* metrics,
             Tally* tally, std::vector<Prepared>* prepared,
             std::vector<Outcome>* first) {
  ScopedSpan span(tracer, "setup", "bench");
  prepared->clear();
  const double t0 = NowSeconds();
  for (const Query& q : w.queries) {
    prepared->push_back(
        Prepare(q, kThreads, tracer, metrics, BlockInputs(q), tally));
  }
  ExecuteAll(prepared, !w.analytic, tally, first);
  return NowSeconds() - t0;
}

void CheckAgainst(const std::vector<Outcome>& golden,
                  const std::vector<Outcome>& got, const Workload& w,
                  const char* what, Tally* tally) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string diff = Difference(golden[i], got[i]);
    if (!diff.empty()) {
      tally->Fail(w.queries[i].label + ": " + what +
                  " differs from the first Execute in " + diff);
    }
  }
}

/// Times one pass of Execute over the query set; every Execute is then
/// compared against `golden`.
double ExecutePass(const Workload& w, std::vector<Prepared>* prepared,
                   const std::vector<Outcome>& golden, const char* what,
                   Tracer* tracer, Tally* tally) {
  std::vector<Outcome> outcomes;
  double seconds = 0;
  {
    ScopedSpan span(tracer, "execute", "bench");
    seconds = ExecuteAll(prepared, !w.analytic, tally, &outcomes);
  }
  CheckAgainst(golden, outcomes, w, what, tally);
  return seconds;
}

/// Times one Compile of the whole query set; each compiled plan must have
/// the stages and solvers of the set-up's plan.
double CompilePass(const std::vector<Prepared>& prepared, Tracer* tracer,
                   Tally* tally) {
  ScopedSpan span(tracer, "compile", "bench");
  double seconds = 0;
  for (const Prepared& p : prepared) {
    ++tally->attempted;
    const double t0 = NowSeconds();
    Result<CompiledPlan> plan = CompileQuery(p.engine, *p.query);
    seconds += NowSeconds() - t0;
    bool same = plan.ok() && plan->stages().size() == p.plan.stages().size();
    for (std::size_t i = 0; same && i < plan->stages().size(); ++i) {
      same = plan->stages()[i].solver_id == p.plan.stages()[i].solver_id;
    }
    if (!same) tally->Fail(p.query->label + ": Compile differs");
  }
  return seconds;
}

/// The serial baseline's set-up: with a one-thread global pool, blocks
/// the inputs, prepares every query with local_threads = 1 (so neither
/// work items nor kernels run in parallel) and runs the first Execute.
/// It runs before any multi-threaded work, so the process peak RSS it
/// leaves is the workload's own footprint, free of the timing-dependent
/// growth of per-thread malloc arenas.
std::vector<Prepared> SerialSetUp(const Workload& w, Tally* tally,
                                  std::vector<Outcome>* first) {
  SetGlobalThreadPoolThreads(1);
  std::vector<Prepared> serial;
  for (const Query& q : w.queries) {
    serial.push_back(Prepare(q, 1, nullptr, nullptr, BlockInputs(q), tally));
  }
  ExecuteAll(&serial, !w.analytic, tally, first);
  SetGlobalThreadPoolThreads(kThreads);
  return serial;
}

/// One kind of timed sample, and the samples taken so far.
struct Measure {
  double share;             // target share of the wall time
  std::size_t min_samples;
  int threads;              // global pool size the samples run with
  std::function<double()> sample;  // takes one sample, returns its seconds
  std::vector<double> samples = {};
  double spent = 0;  // wall seconds spent on this measure, checks included
};

/// Takes samples until `budget` seconds have passed and every measure has
/// its minimum count, always from the measure furthest below its share of
/// the time spent.  Interleaving spreads each measure over the whole run,
/// so a slow drift in machine speed moves all metrics alike instead of
/// the one measured while it lasted.  Each sample runs on the next CPU of
/// its measure (OnCpu).
void Interleave(const std::vector<Measure*>& measures, double budget) {
  const double start = NowSeconds();
  for (;;) {
    const bool over = NowSeconds() - start >= budget;
    Measure* next = nullptr;
    for (Measure* m : measures) {
      if (over && m->samples.size() >= m->min_samples) continue;
      if (next == nullptr ||
          m->spent / m->share < next->spent / next->share) {
        next = m;
      }
    }
    if (next == nullptr) break;
    // Resized before pinning: new pool workers inherit the caller's CPUs.
    if (GlobalParallelism() != next->threads) {
      SetGlobalThreadPoolThreads(next->threads);
    }
    const double t0 = NowSeconds();
    next->samples.push_back(OnCpu(next->samples.size(), next->sample));
    next->spent += NowSeconds() - t0;
  }
  if (GlobalParallelism() != kThreads) SetGlobalThreadPoolThreads(kThreads);
}

std::map<NodeId, DenseMatrix> DenseInputs(const Query& q) {
  std::map<NodeId, DenseMatrix> dense = q.dense_inputs;
  for (const auto& [id, m] : q.sparse_inputs) dense.emplace(id, m.ToDense());
  return dense;
}

/// Compares every output of `outcome` with ReferenceEval; returns the
/// largest |engine − reference|.  A difference beyond 1e-9 of the
/// output's magnitude is a failure.
double CompareWithReference(const Query& q, const Outcome& outcome,
                            Tally* tally) {
  const std::map<NodeId, DenseMatrix> inputs = DenseInputs(q);
  double worst = 0;
  for (NodeId id : q.dag.outputs()) {
    Result<DenseMatrix> ref = ReferenceEval(q.dag, id, inputs);
    const auto it = outcome.outputs.find(id);
    if (!ref.ok() || it == outcome.outputs.end()) {
      tally->Fail(q.label + ": no reference for output v" +
                  std::to_string(id));
      continue;
    }
    const DenseMatrix got = it->second.ToDense();
    double magnitude = 1;
    for (std::int64_t i = 0; i < ref->size(); ++i) {
      magnitude = std::max(magnitude, std::fabs(ref->data()[i]));
    }
    const double diff = got.rows() == ref->rows() && got.cols() == ref->cols()
                            ? DenseMatrix::MaxAbsDiff(got, *ref)
                            : NAN;
    if (!(diff <= 1e-9 * magnitude)) {
      tally->Fail(q.label + ": output v" + std::to_string(id) +
                  " differs from ReferenceEval by " + std::to_string(diff));
    }
    worst = std::isnan(diff) ? worst : std::max(worst, diff);
  }
  return worst;
}

/// The reference check of the first Execute (or of the reduced instance,
/// which is compiled and executed here).
double ReferenceCheck(const Workload& w, const std::vector<Outcome>& golden,
                      Tracer* tracer, Tally* tally) {
  ScopedSpan span(tracer, "reference", "bench");
  double worst = 0;
  if (w.check_timed) {
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      worst = std::max(worst,
                       CompareWithReference(w.queries[i], golden[i], tally));
    }
  }
  for (const Query& q : w.reduced) {
    std::vector<Prepared> prepared;
    prepared.push_back(
        Prepare(q, kThreads, nullptr, nullptr, BlockInputs(q), tally));
    std::vector<Outcome> outcome;
    ExecuteAll(&prepared, true, tally, &outcome);
    worst = std::max(worst, CompareWithReference(q, outcome[0], tally));
  }
  return worst;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-pass deltas of the engine's metric registry.
class RegistryDeltas {
 public:
  explicit RegistryDeltas(const MetricsRegistry* registry)
      : registry_(registry), last_(registry->Snapshot()) {}

  /// Records the change since the previous call under each tracked name.
  void Pass() {
    namespace mn = metric_names;
    const MetricsSnapshot now = registry_->Snapshot();
    const auto counter = [&](const char* name, const MetricLabels& labels) {
      const MetricSample* a = now.Find(name, labels);
      const MetricSample* b = last_.Find(name, labels);
      return static_cast<double>((a ? a->counter_value : 0) -
                                 (b ? b->counter_value : 0));
    };
    const auto total = [&](const char* name) {
      return static_cast<double>(now.CounterTotal(name) -
                                 last_.CounterTotal(name));
    };
    const auto hist_sum = [&](const char* name) {
      const MetricSample* a = now.Find(name);
      const MetricSample* b = last_.Find(name);
      return (a ? a->histogram_sum : 0) - (b ? b->histogram_sum : 0);
    };
    double spmm = 0;
    for (const char* kernel : {"spmm_sparse_dense", "spmm_dense_sparse",
                               "spmm_sparse_sparse", "transpose_spmm"}) {
      spmm += counter(mn::kKernelSparseCalls, {{"kernel", kernel}});
    }
    const std::pair<const char*, double> deltas[] = {
        {"engine.solver_resolutions", total(mn::kSolverResolutions)},
        {"engine.solver_rejections", total(mn::kSolverRejections)},
        {"engine.stages", total(mn::kStages)},
        {"runtime.tasks", total(mn::kStageTasks)},
        {"runtime.consolidation_bytes",
         counter(mn::kStageShuffleBytes, {{"cause", "consolidation"}})},
        {"runtime.aggregation_bytes",
         counter(mn::kStageShuffleBytes, {{"cause", "aggregation"}})},
        {"runtime.memory_overruns", total(mn::kStageMemoryOverruns)},
        {"ops.work_items", total(mn::kWorkItems)},
        {"ops.work_item_busy_s", hist_sum(mn::kWorkItemSeconds)},
        {"ops.work_item_wait_s", hist_sum(mn::kWorkItemQueueWaitSeconds)},
        {"ops.flops", total(mn::kKernelFlops)},
        {"matrix.gemm_flops", total(mn::kKernelGemmFlops)},
        {"matrix.sparse_flops", total(mn::kKernelSparseFlops)},
        {"matrix.spmm_calls", spmm},
        {"matrix.sddmm_dots", total(mn::kKernelSddmmDots)},
        {"matrix.conversions", total(mn::kBlockConversions)},
    };
    for (const auto& [name, value] : deltas) series_[name].push_back(value);
    last_ = now;
  }

  /// Median of a tracked series over the passes so far.
  double Median(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : perfbench::Median(it->second);
  }

  /// Names of `exact` series whose value changed between passes.
  std::vector<std::string> Inexact(const std::vector<std::string>& exact) {
    std::vector<std::string> out;
    for (const std::string& name : exact) {
      const std::vector<double>& s = series_[name];
      for (double v : s) {
        if (v != s.front()) {
          out.push_back(name);
          break;
        }
      }
    }
    return out;
  }

  void Clear() { series_.clear(); }

 private:
  const MetricsRegistry* registry_;
  MetricsSnapshot last_;
  std::map<std::string, std::vector<double>> series_;
};

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const Tally& tally, bool correct,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Prints the host seconds each phase of a run took, for the run log.
class PhaseLog {
 public:
  void Mark(const char* phase) {
    const double now = NowSeconds();
    std::printf("phase %-16s %8.3f s\n", phase, now - last_);
    last_ = now;
  }

 private:
  double last_ = NowSeconds();
};

int Run(const Args& args) {
  PhaseLog log;
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    Fatal("unknown workload " + args.workload);
  }
  log.Mark("generate");
  SetGlobalThreadPoolThreads(kThreads);
  std::printf("context %s\n", RunContext(w, args.seed).c_str());
  WarnIfUnoptimized();

  const double s = args.seconds * (args.trace ? kTracedScale : 1.0);
  Tally tally;

  // --- Untraced measurement: the end-to-end metrics. ---
  std::vector<Outcome> serial_first;
  std::vector<Prepared> serial = SerialSetUp(w, &tally, &serial_first);
  const double peak_rss = PeakRssMib();
  std::vector<Prepared> prepared;
  std::vector<Outcome> golden;
  Measure setups{kSetupShare, kMinSetups, kThreads, [&] {
                   std::vector<Outcome> first;
                   const double seconds =
                       SetUp(w, nullptr, nullptr, &tally, &prepared, &first);
                   CheckAgainst(golden, first, w, "a set-up Execute", &tally);
                   return seconds;
                 }};
  {
    const double t0 = NowSeconds();
    setups.samples.push_back(
        SetUp(w, nullptr, nullptr, &tally, &prepared, &golden));
    setups.spent = NowSeconds() - t0;
  }
  CheckAgainst(golden, serial_first, w, "the 1-thread Execute", &tally);
  log.Mark("first setups");
  // A compile sample repeats the pass for kCompileBatchSeconds, so the
  // cold caches after each move to another CPU are a small part of it.
  Measure compiles{kCompileShare, kMinCompiles, kThreads, [&] {
                     double seconds = 0;
                     int passes = 0;
                     const double t0 = NowSeconds();
                     do {
                       seconds += CompilePass(prepared, nullptr, &tally);
                       ++passes;
                     } while (NowSeconds() - t0 < kCompileBatchSeconds);
                     return seconds / passes;
                   }};
  Measure executes{kExecuteShare,
                   args.trace ? kMinTracedExecutes : kMinExecutes, kThreads,
                   [&] {
                     return ExecutePass(w, &prepared, golden, "an Execute",
                                        nullptr, &tally);
                   }};
  Measure serials{kSerialShare, kMinSerial, 1, [&] {
                    return ExecutePass(w, &serial, golden,
                                       "a 1-thread Execute", nullptr, &tally);
                  }};
  Interleave({&setups, &compiles, &executes, &serials}, s);
  log.Mark("measure");

  double modeled_s = 0, shuffle_bytes = 0, task_memory = 0;
  for (const Outcome& o : golden) {
    modeled_s += o.modeled_s;
    shuffle_bytes += static_cast<double>(o.shuffle_bytes);
    task_memory = std::max(task_memory, static_cast<double>(o.max_task_memory));
  }
  const double execute_s = Median(executes.samples);
  const double execute_1t_s = Median(serials.samples);
  const double compile_s = Median(compiles.samples);
  const Tail tail = TailOf(executes.samples);
  std::printf("execute_tail_s is p%.1f of the Execute passes\n",
              tail.percentile);
  for (const auto& [name, m] :
       {std::pair{"execute_s", &executes}, std::pair{"execute_1t_s", &serials},
        std::pair{"compile_s", &compiles}, std::pair{"setup_s", &setups}}) {
    const std::vector<double>& v = m->samples;
    std::printf("samples %-12s n %5zu min %.4g median %.4g max %.4g\n", name,
                v.size(), *std::min_element(v.begin(), v.end()), Median(v),
                *std::max_element(v.begin(), v.end()));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double ref_diff = ReferenceCheck(w, golden, nullptr, &tally);
    std::printf("ref_max_abs_diff %.3g\n", ref_diff);
    log.Mark("reference");
    metrics = {
        {"execute_s", execute_s, "s"},
        {"execute_tail_s", tail.value, "s"},
        {"execute_1t_s", execute_1t_s, "s"},
        {"compile_s", compile_s, "s"},
        {"setup_s", Median(setups.samples), "s"},
        {"peak_rss_mib", peak_rss, "MiB"},
    };
    PrintResult(tally, tally.failed == 0, metrics);
    return 0;
  }

  // --- Traced measurement: the per-layer metrics. ---
  Tracer tracer;
  MetricsRegistry registry;
  std::vector<Prepared> traced;
  std::vector<Outcome> traced_first;
  SetUp(w, &tracer, &registry, &tally, &traced, &traced_first);
  CheckAgainst(golden, traced_first, w, "a traced Execute", &tally);
  log.Mark("traced setup");

  RegistryDeltas deltas(&registry);
  Measure traced_compiles{1.0, kMinCompiles, kThreads, [&] {
                            const double seconds =
                                CompilePass(traced, &tracer, &tally);
                            deltas.Pass();
                            return seconds;
                          }};
  Interleave({&traced_compiles}, kTracedCompileShare * args.seconds);
  const double resolutions = deltas.Median("engine.solver_resolutions");
  const double rejections = deltas.Median("engine.solver_rejections");
  std::vector<std::string> inexact = deltas.Inexact(
      {"engine.solver_resolutions", "engine.solver_rejections"});
  deltas.Clear();
  log.Mark("traced compile");

  Measure traced_executes{1.0, kMinTracedExecutes, kThreads, [&] {
                            const double seconds = ExecutePass(
                                w, &traced, golden, "a traced Execute",
                                &tracer, &tally);
                            deltas.Pass();
                            return seconds;
                          }};
  Interleave({&traced_executes}, kTracedExecuteShare * args.seconds);
  const std::vector<std::string> exact = {
      "engine.stages",      "runtime.tasks",
      "runtime.consolidation_bytes", "runtime.aggregation_bytes",
      "runtime.memory_overruns",     "ops.work_items",
      "ops.flops",          "matrix.gemm_flops",
      "matrix.sparse_flops", "matrix.spmm_calls",
      "matrix.sddmm_dots",  "matrix.conversions"};
  for (const std::string& name : deltas.Inexact(exact)) inexact.push_back(name);
  log.Mark("traced execute");

  const CompileProbe cp =
      RunCompileProbes(w, kCompileProbeShare * args.seconds, &tracer);
  if (cp.inexact_passes > 0) inexact.push_back("fusion/cost/verify counters");
  log.Mark("compile probes");
  SetGlobalThreadPoolThreads(1);
  const std::vector<KernelProbe> kernels =
      RunKernelProbes(w, kKernelProbeShare * args.seconds, &tracer);
  SetGlobalThreadPoolThreads(kThreads);
  log.Mark("kernel probes");
  const double ref_diff = ReferenceCheck(w, golden, &tracer, &tally);
  log.Mark("reference");
  for (const std::string& name : inexact) {
    tally.Fail(name + " differ between repetitions");
  }

  const std::string trace_path = args.out_dir + "/trace-" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  if (!tracer.WriteChromeJson(trace_path)) Fatal("cannot write " + trace_path);
  std::printf("trace %s (%zu spans)\n", trace_path.c_str(), tracer.size());
  log.Mark("trace write");

  std::vector<double> execute_self, stage, stage_self;
  for (const ExecuteLayers& l : DeriveExecuteLayers(tracer.spans())) {
    execute_self.push_back(l.execute_self_s);
    stage.push_back(l.stage_s);
    stage_self.push_back(l.stage_self_s);
  }

  const double traced_execute_s = Median(traced_executes.samples);
  const double busy = deltas.Median("ops.work_item_busy_s");
  const double flops = deltas.Median("ops.flops");
  const MetricsSnapshot final_metrics = registry.Snapshot();
  const MetricSample* depth =
      final_metrics.Find(metric_names::kThreadPoolQueueDepth);
  const auto rate = [&](const char* name) {
    for (const KernelProbe& k : kernels) {
      if (k.name == name) return k.rate();
    }
    return 0.0;
  };
  for (const KernelProbe& k : kernels) {
    std::printf(
        "probe %-6s %-36s %12" PRId64 " ops %12" PRId64
        " B computed  %.3g s/call  %.3f G/s\n",
        k.name.c_str(), k.shape.c_str(), k.ops, k.computed_bytes, k.seconds,
        k.rate());
  }
  metrics = {
      {"fusion.plan_s", cp.plan_s, "s"},
      {"fusion.candidates", static_cast<double>(cp.candidates), "count"},
      {"fusion.split_attempts", static_cast<double>(cp.split_attempts),
       "count"},
      {"fusion.splits", static_cast<double>(cp.splits), "count"},
      {"fusion.plans", static_cast<double>(cp.plans), "count"},
      {"cost.optimize_s", cp.optimize_s, "s"},
      {"cost.searches", static_cast<double>(cp.searches), "count"},
      {"cost.cuboids_evaluated", static_cast<double>(cp.cuboids_evaluated),
       "count"},
      {"cost.cuboids_pruned", static_cast<double>(cp.cuboids_pruned),
       "count"},
      {"cost.infeasible", static_cast<double>(cp.infeasible), "count"},
      {"verify.verify_s", cp.verify_s, "s"},
      {"verify.checks", static_cast<double>(cp.checks), "count"},
      {"engine.compile_self_s", compile_s - cp.plan_s - cp.verify_s, "s"},
      {"engine.solver_resolutions", resolutions, "count"},
      {"engine.solver_rejections", rejections, "count"},
      {"engine.execute_self_s", Median(execute_self), "s"},
      {"engine.stages", deltas.Median("engine.stages"), "count"},
      {"runtime.stage_s", Median(stage), "s"},
      {"runtime.stage_self_s", Median(stage_self), "s"},
      {"runtime.tasks", deltas.Median("runtime.tasks"), "count"},
      {"runtime.consolidation_bytes",
       deltas.Median("runtime.consolidation_bytes"), "B"},
      {"runtime.aggregation_bytes", deltas.Median("runtime.aggregation_bytes"),
       "B"},
      {"runtime.task_memory_peak_bytes", task_memory, "B"},
      {"runtime.memory_overruns", deltas.Median("runtime.memory_overruns"),
       "count"},
      {"ops.work_items", deltas.Median("ops.work_items"), "count"},
      {"ops.work_item_busy_s", busy, "s"},
      {"ops.work_item_wait_s", deltas.Median("ops.work_item_wait_s"), "s"},
      {"ops.flops", flops, "count"},
      {"ops.gflops", busy > 0 ? flops / busy / 1e9 : 0.0, "GFLOP/s"},
      {"matrix.gemm_flops", deltas.Median("matrix.gemm_flops"), "count"},
      {"matrix.sparse_flops", deltas.Median("matrix.sparse_flops"), "count"},
      {"matrix.spmm_calls", deltas.Median("matrix.spmm_calls"), "count"},
      {"matrix.sddmm_dots", deltas.Median("matrix.sddmm_dots"), "count"},
      {"matrix.conversions", deltas.Median("matrix.conversions"), "count"},
      {"matrix.gemm_gflops", rate("gemm"), "GFLOP/s"},
      {"matrix.spmm_gflops", rate("spmm"), "GFLOP/s"},
      {"matrix.sddmm_gflops", rate("sddmm"), "GFLOP/s"},
      {"matrix.ewise_gcells_per_s", rate("ewise"), "Gcell/s"},
      {"common.parallel_speedup",
       execute_s > 0 ? execute_1t_s / execute_s : 0.0, "ratio"},
      {"common.busy_ratio",
       traced_execute_s > 0 ? busy / (traced_execute_s * kThreads) : 0.0,
       "ratio"},
      {"common.queue_depth_peak", depth != nullptr ? depth->gauge_peak : 0.0,
       "count"},
      {"telemetry.trace_overhead",
       execute_s > 0 ? traced_execute_s / execute_s - 1 : 0.0, "ratio"},
      {"modeled_cluster_s", modeled_s, "s"},
      {"shuffle_bytes", shuffle_bytes, "B"},
      {"ref_max_abs_diff", ref_diff, "abs"},
      {"failure_ratio",
       static_cast<double>(tally.failed) /
           static_cast<double>(std::max<std::int64_t>(tally.attempted, 1)),
       "ratio"},
  };
  PrintResult(tally, tally.failed == 0, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
