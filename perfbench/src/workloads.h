// The benchmark's four workloads: query sets plus the raw inputs generated
// from the run's seed.  See perfbench/README.md for why each exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "ir/dag.h"
#include "matrix/blocked_matrix.h"
#include "matrix/dense_matrix.h"
#include "matrix/sparse_matrix.h"

namespace perfbench {

/// One query of a workload: the engine configuration it runs under, its
/// DAG, and (real mode) the generated leaf values.  An empty
/// `plan_members` means the planner picks the plans (Engine::Compile);
/// otherwise the query is compiled as the single fused plan
/// {plan_members, plan_root} with operator `forced` (the paper's §6.2
/// methodology, Engine::CompileWithPlans).
struct Query {
  std::string label;
  fuseme::EngineOptions options;
  fuseme::Dag dag;
  std::vector<fuseme::NodeId> plan_members;
  fuseme::NodeId plan_root = fuseme::kInvalidNode;
  fuseme::OperatorKind forced = fuseme::OperatorKind::kAuto;
  /// Outcome the paper's figure records for this cell: "ok", "O.O.M." or
  /// "T.O.".  Real-mode queries always expect "ok".
  std::string expected_status = "ok";
  std::map<fuseme::NodeId, fuseme::DenseMatrix> dense_inputs;
  std::map<fuseme::NodeId, fuseme::SparseMatrix> sparse_inputs;
};

struct Workload {
  std::string name;
  bool analytic = false;
  /// The query set one Compile/Execute measurement covers.
  std::vector<Query> queries;
  /// Queries whose first Execute is checked against ReferenceEval.  Empty
  /// when the timed queries are checked directly (`check_timed`), or in
  /// analytic mode, where there is nothing numeric to check.
  std::vector<Query> reduced;
  bool check_timed = false;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` with inputs drawn from `seed`; false when the
/// name is unknown.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

/// Blocks a query's raw inputs at its cluster block size
/// (BlockedMatrix::FromDense / FromSparse).
std::map<fuseme::NodeId, fuseme::BlockedMatrix> BlockInputs(const Query& q);

/// Compiles `q` on `engine`: Engine::Compile, or CompileWithPlans with the
/// query's fixed plan.
fuseme::Result<fuseme::CompiledPlan> CompileQuery(const fuseme::Engine& engine,
                                                  const Query& q);

/// "ok", "O.O.M.", "T.O." or "ERR: <message>".
std::string StatusCell(const fuseme::Status& status);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
