#include "engine/compiled_plan.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/json_util.h"
#include "engine/solver_registry.h"
#include "verify/plan_verifier.h"

namespace fuseme {

namespace {

/// Shortest round-trip-exact rendering of a double ("%.17g", the same
/// convention the metric/trace exporters use).
std::string JsonDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `forced` includes kAuto (the common case), which OperatorKindName maps
/// to "?" — give it a stable spelling instead.
std::string ForcedKindName(OperatorKind kind) {
  return kind == OperatorKind::kAuto ? "auto"
                                     : std::string(OperatorKindName(kind));
}

template <typename E, typename NameFn>
Result<E> ParseEnum(const char* what, const std::string& token, int max_value,
                    NameFn name) {
  for (int i = 0; i <= max_value; ++i) {
    const E e = static_cast<E>(i);
    if (name(e) == token) return e;
  }
  return Status::InvalidArgument(std::string("compiled plan JSON: unknown ") +
                                 what + " \"" + token + "\"");
}

Result<SystemMode> ParseSystemMode(const std::string& s) {
  return ParseEnum<SystemMode>(
      "system", s, static_cast<int>(SystemMode::kTensorFlow), SystemModeName);
}

Result<OperatorKind> ParseForcedKind(const std::string& s) {
  if (s == "auto") return OperatorKind::kAuto;
  return ParseEnum<OperatorKind>(
      "operator", s, static_cast<int>(OperatorKind::kCpmm), OperatorKindName);
}

Result<OperatorKind> ParseStageKind(const std::string& s) {
  FUSEME_ASSIGN_OR_RETURN(const OperatorKind kind, ParseForcedKind(s));
  if (kind == OperatorKind::kAuto) {
    return Status::InvalidArgument(
        "compiled plan JSON: stage operator kind must be resolved, got "
        "\"auto\"");
  }
  return kind;
}

Result<VerifyLevel> ParseVerifyLevel(const std::string& s) {
  return ParseEnum<VerifyLevel>(
      "verify level", s, static_cast<int>(VerifyLevel::kParanoid),
      VerifyLevelName);
}

Result<StatusCode> ParseStatusCode(const std::string& s) {
  return ParseEnum<StatusCode>(
      "status code", s, static_cast<int>(StatusCode::kInternal),
      StatusCodeName);
}

Result<OpKind> ParseOpKind(const std::string& s) {
  return ParseEnum<OpKind>("node kind", s,
                           static_cast<int>(OpKind::kTranspose), OpKindName);
}

Result<UnaryFn> ParseUnaryFn(const std::string& s) {
  return ParseEnum<UnaryFn>(
      "unary fn", s, static_cast<int>(UnaryFn::kReciprocal), UnaryFnName);
}

Result<BinaryFn> ParseBinaryFn(const std::string& s) {
  return ParseEnum<BinaryFn>("binary fn", s,
                             static_cast<int>(BinaryFn::kLess), BinaryFnName);
}

Result<AggFn> ParseAggFn(const std::string& s) {
  return ParseEnum<AggFn>("agg fn", s, static_cast<int>(AggFn::kMax),
                          AggFnName);
}

Result<AggAxis> ParseAggAxis(const std::string& s) {
  return ParseEnum<AggAxis>("agg axis", s, static_cast<int>(AggAxis::kCol),
                            AggAxisName);
}

Result<bool> ReadBool(JsonReader& r) {
  if (r.TryConsume('t')) {
    FUSEME_RETURN_IF_ERROR(r.Expect('r'));
    FUSEME_RETURN_IF_ERROR(r.Expect('u'));
    FUSEME_RETURN_IF_ERROR(r.Expect('e'));
    return true;
  }
  if (r.TryConsume('f')) {
    FUSEME_RETURN_IF_ERROR(r.Expect('a'));
    FUSEME_RETURN_IF_ERROR(r.Expect('l'));
    FUSEME_RETURN_IF_ERROR(r.Expect('s'));
    FUSEME_RETURN_IF_ERROR(r.Expect('e'));
    return false;
  }
  return r.Error("expected boolean");
}

Result<std::vector<std::int64_t>> ReadIntArray(JsonReader& r) {
  std::vector<std::int64_t> out;
  FUSEME_RETURN_IF_ERROR(r.Expect('['));
  if (r.TryConsume(']')) return out;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
    out.push_back(v);
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect(']'));
  return out;
}

void AppendNodeJson(std::string* out, const Node& n) {
  *out += "{\"kind\":\"" + std::string(OpKindName(n.kind)) + "\"";
  switch (n.kind) {
    case OpKind::kInput:
      *out += ",\"name\":\"" + JsonEscape(n.name) + "\"";
      break;
    case OpKind::kScalar:
      *out += ",\"value\":" + JsonDouble(n.scalar);
      break;
    case OpKind::kUnary:
      *out += ",\"fn\":\"" + std::string(UnaryFnName(n.unary_fn)) + "\"";
      break;
    case OpKind::kBinary:
      *out += ",\"fn\":\"" + std::string(BinaryFnName(n.binary_fn)) + "\"";
      break;
    case OpKind::kUnaryAgg:
      *out += ",\"fn\":\"" + std::string(AggFnName(n.agg_fn)) + "\"";
      *out += ",\"axis\":\"" + std::string(AggAxisName(n.agg_axis)) + "\"";
      break;
    case OpKind::kMatMul:
    case OpKind::kTranspose:
      break;
  }
  if (!n.inputs.empty()) {
    *out += ",\"inputs\":[";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) *out += ",";
      *out += std::to_string(n.inputs[i]);
    }
    *out += "]";
  }
  // Inferred metadata, recorded so FromJson can validate the rebuilt DAG
  // against what the artifact was compiled for.
  *out += ",\"rows\":" + std::to_string(n.rows);
  *out += ",\"cols\":" + std::to_string(n.cols);
  *out += ",\"nnz\":" + std::to_string(n.nnz);
  *out += "}";
}

void AppendPredictionJson(std::string* out, const StagePrediction& p) {
  *out += "{\"cuboid\":[" + std::to_string(p.cuboid.P) + "," +
          std::to_string(p.cuboid.Q) + "," + std::to_string(p.cuboid.R) +
          "," + std::to_string(p.cuboid.W) + "]";
  *out += ",\"num_tasks\":" + std::to_string(p.num_tasks);
  *out += ",\"net_bytes\":" + JsonDouble(p.net_bytes);
  *out += ",\"agg_bytes\":" + JsonDouble(p.agg_bytes);
  *out += ",\"flops\":" + JsonDouble(p.flops);
  *out += ",\"mem_per_task\":" + JsonDouble(p.mem_per_task);
  *out += ",\"cost_seconds\":" + JsonDouble(p.cost_seconds);
  *out += "}";
}

void AppendClusterJson(std::string* out, const ClusterConfig& c) {
  *out += "{\"num_nodes\":" + std::to_string(c.num_nodes);
  *out += ",\"tasks_per_node\":" + std::to_string(c.tasks_per_node);
  *out += ",\"task_memory_budget\":" + std::to_string(c.task_memory_budget);
  *out += ",\"net_bandwidth\":" + JsonDouble(c.net_bandwidth);
  *out += ",\"compute_bandwidth\":" + JsonDouble(c.compute_bandwidth);
  *out += ",\"block_size\":" + std::to_string(c.block_size);
  *out += ",\"timeout_seconds\":" + JsonDouble(c.timeout_seconds);
  *out += ",\"task_launch_overhead\":" + JsonDouble(c.task_launch_overhead);
  *out += ",\"shuffle_cpu_factor\":" + JsonDouble(c.shuffle_cpu_factor);
  *out += ",\"overlap_factor\":" + JsonDouble(c.overlap_factor);
  *out += ",\"local_threads\":" + std::to_string(c.local_threads);
  *out += "}";
}

Status ReadClusterJson(JsonReader& r, ClusterConfig* c) {
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return Status::OK();
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "num_nodes") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
      c->num_nodes = static_cast<int>(v);
    } else if (key == "tasks_per_node") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
      c->tasks_per_node = static_cast<int>(v);
    } else if (key == "task_memory_budget") {
      FUSEME_ASSIGN_OR_RETURN(c->task_memory_budget, r.ReadInt());
    } else if (key == "net_bandwidth") {
      FUSEME_ASSIGN_OR_RETURN(c->net_bandwidth, r.ReadNumber());
    } else if (key == "compute_bandwidth") {
      FUSEME_ASSIGN_OR_RETURN(c->compute_bandwidth, r.ReadNumber());
    } else if (key == "block_size") {
      FUSEME_ASSIGN_OR_RETURN(c->block_size, r.ReadInt());
    } else if (key == "timeout_seconds") {
      FUSEME_ASSIGN_OR_RETURN(c->timeout_seconds, r.ReadNumber());
    } else if (key == "task_launch_overhead") {
      FUSEME_ASSIGN_OR_RETURN(c->task_launch_overhead, r.ReadNumber());
    } else if (key == "shuffle_cpu_factor") {
      FUSEME_ASSIGN_OR_RETURN(c->shuffle_cpu_factor, r.ReadNumber());
    } else if (key == "overlap_factor") {
      FUSEME_ASSIGN_OR_RETURN(c->overlap_factor, r.ReadNumber());
    } else if (key == "local_threads") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
      c->local_threads = static_cast<int>(v);
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  return r.Expect('}');
}

/// One parsed-but-not-yet-rebuilt DAG node.
struct NodeRecord {
  OpKind kind = OpKind::kInput;
  std::string name;
  std::string fn;
  std::string axis;
  double value = 0.0;
  std::vector<std::int64_t> inputs;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
};

Result<NodeRecord> ReadNodeRecord(JsonReader& r) {
  NodeRecord rec;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return rec;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "kind") {
      FUSEME_ASSIGN_OR_RETURN(const std::string s, r.ReadString());
      FUSEME_ASSIGN_OR_RETURN(rec.kind, ParseOpKind(s));
    } else if (key == "name") {
      FUSEME_ASSIGN_OR_RETURN(rec.name, r.ReadString());
    } else if (key == "fn") {
      FUSEME_ASSIGN_OR_RETURN(rec.fn, r.ReadString());
    } else if (key == "axis") {
      FUSEME_ASSIGN_OR_RETURN(rec.axis, r.ReadString());
    } else if (key == "value") {
      FUSEME_ASSIGN_OR_RETURN(rec.value, r.ReadNumber());
    } else if (key == "inputs") {
      FUSEME_ASSIGN_OR_RETURN(rec.inputs, ReadIntArray(r));
    } else if (key == "rows") {
      FUSEME_ASSIGN_OR_RETURN(rec.rows, r.ReadInt());
    } else if (key == "cols") {
      FUSEME_ASSIGN_OR_RETURN(rec.cols, r.ReadInt());
    } else if (key == "nnz") {
      FUSEME_ASSIGN_OR_RETURN(rec.nnz, r.ReadInt());
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  return rec;
}

/// Replays one node record through the Dag builders.
Result<NodeId> RebuildNode(Dag* dag, const NodeRecord& rec, NodeId expected) {
  auto context = [&](Status s) {
    return Status::InvalidArgument("compiled plan dag node v" +
                                   std::to_string(expected) + ": " +
                                   s.message());
  };
  auto arity = [&](std::size_t want) -> Status {
    if (rec.inputs.size() != want) {
      return Status::InvalidArgument(
          "compiled plan dag node v" + std::to_string(expected) +
          ": expected " + std::to_string(want) + " input(s), got " +
          std::to_string(rec.inputs.size()));
    }
    return Status::OK();
  };
  auto in = [&](std::size_t i) { return static_cast<NodeId>(rec.inputs[i]); };
  Result<NodeId> id = Status::Internal("unset");
  switch (rec.kind) {
    case OpKind::kInput:
      id = dag->AddInput(rec.name, rec.rows, rec.cols, rec.nnz);
      break;
    case OpKind::kScalar:
      id = dag->AddScalar(rec.value);
      break;
    case OpKind::kUnary: {
      FUSEME_RETURN_IF_ERROR(arity(1));
      FUSEME_ASSIGN_OR_RETURN(const UnaryFn fn, ParseUnaryFn(rec.fn));
      id = dag->AddUnary(fn, in(0));
      break;
    }
    case OpKind::kBinary: {
      FUSEME_RETURN_IF_ERROR(arity(2));
      FUSEME_ASSIGN_OR_RETURN(const BinaryFn fn, ParseBinaryFn(rec.fn));
      id = dag->AddBinary(fn, in(0), in(1));
      break;
    }
    case OpKind::kMatMul:
      FUSEME_RETURN_IF_ERROR(arity(2));
      id = dag->AddMatMul(in(0), in(1));
      break;
    case OpKind::kUnaryAgg: {
      FUSEME_RETURN_IF_ERROR(arity(1));
      FUSEME_ASSIGN_OR_RETURN(const AggFn fn, ParseAggFn(rec.fn));
      FUSEME_ASSIGN_OR_RETURN(const AggAxis axis, ParseAggAxis(rec.axis));
      id = dag->AddUnaryAgg(fn, axis, in(0));
      break;
    }
    case OpKind::kTranspose:
      FUSEME_RETURN_IF_ERROR(arity(1));
      id = dag->AddTranspose(in(0));
      break;
  }
  if (!id.ok()) return context(id.status());
  if (*id != expected) {
    return Status::InvalidArgument(
        "compiled plan dag node v" + std::to_string(expected) +
        ": builder assigned id v" + std::to_string(*id));
  }
  const Node& built = dag->node(*id);
  if (built.rows != rec.rows || built.cols != rec.cols ||
      built.nnz != rec.nnz) {
    return Status::InvalidArgument(
        "compiled plan dag node v" + std::to_string(expected) +
        ": recorded metadata " + std::to_string(rec.rows) + "x" +
        std::to_string(rec.cols) + " (nnz " + std::to_string(rec.nnz) +
        ") does not match the rebuilt node's " +
        std::to_string(built.rows) + "x" + std::to_string(built.cols) +
        " (nnz " + std::to_string(built.nnz) + ")");
  }
  return id;
}

struct PlanRecord {
  std::vector<std::int64_t> members;
  std::int64_t root = kInvalidNode;
};

Result<PlanRecord> ReadPlanRecord(JsonReader& r) {
  PlanRecord rec;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return rec;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "members") {
      FUSEME_ASSIGN_OR_RETURN(rec.members, ReadIntArray(r));
    } else if (key == "root") {
      FUSEME_ASSIGN_OR_RETURN(rec.root, r.ReadInt());
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  return rec;
}

/// Pre-validates a plan record so the checked PartialPlan constructor
/// (which CHECK-fails on malformed regions) is only reached with members
/// it accepts; deeper structural rules stay the verifier's job.
Result<PartialPlan> RebuildPlan(const Dag& dag, const PlanRecord& rec,
                                std::size_t index) {
  auto bad = [&](const std::string& why) {
    return Status::InvalidArgument("compiled plan plan #" +
                                   std::to_string(index) + ": " + why);
  };
  if (rec.members.empty()) return bad("empty member list");
  std::vector<NodeId> members;
  members.reserve(rec.members.size());
  bool root_is_member = false;
  for (const std::int64_t m : rec.members) {
    if (m < 0 || m >= dag.num_nodes()) {
      return bad("member v" + std::to_string(m) + " is not a DAG node");
    }
    const OpKind kind = dag.node(static_cast<NodeId>(m)).kind;
    if (kind == OpKind::kInput || kind == OpKind::kScalar) {
      return bad("member v" + std::to_string(m) + " is a leaf, not an "
                 "operator");
    }
    members.push_back(static_cast<NodeId>(m));
    if (m == rec.root) root_is_member = true;
  }
  if (!root_is_member) {
    return bad("root v" + std::to_string(rec.root) + " is not a member");
  }
  return PartialPlan(&dag, std::move(members),
                     static_cast<NodeId>(rec.root));
}

struct StageRecord {
  std::string kind;
  std::string solver;
  bool refine_cell = false;
  bool has_prediction = false;
  StagePrediction prediction;
  bool has_error = false;
  std::string error_code;
  std::string error_message;
};

Result<StagePrediction> ReadPredictionJson(JsonReader& r) {
  StagePrediction p;
  p.present = true;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return p;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "cuboid") {
      FUSEME_ASSIGN_OR_RETURN(const std::vector<std::int64_t> c,
                              ReadIntArray(r));
      if (c.size() != 4) return r.Error("cuboid must have 4 entries");
      p.cuboid = Cuboid{c[0], c[1], c[2], c[3]};
    } else if (key == "num_tasks") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
      p.num_tasks = static_cast<int>(v);
    } else if (key == "net_bytes") {
      FUSEME_ASSIGN_OR_RETURN(p.net_bytes, r.ReadNumber());
    } else if (key == "agg_bytes") {
      FUSEME_ASSIGN_OR_RETURN(p.agg_bytes, r.ReadNumber());
    } else if (key == "flops") {
      FUSEME_ASSIGN_OR_RETURN(p.flops, r.ReadNumber());
    } else if (key == "mem_per_task") {
      FUSEME_ASSIGN_OR_RETURN(p.mem_per_task, r.ReadNumber());
    } else if (key == "cost_seconds") {
      FUSEME_ASSIGN_OR_RETURN(p.cost_seconds, r.ReadNumber());
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  return p;
}

Result<StageRecord> ReadStageRecord(JsonReader& r) {
  StageRecord rec;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return rec;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "kind") {
      FUSEME_ASSIGN_OR_RETURN(rec.kind, r.ReadString());
    } else if (key == "solver") {
      FUSEME_ASSIGN_OR_RETURN(rec.solver, r.ReadString());
    } else if (key == "refine_cell") {
      FUSEME_ASSIGN_OR_RETURN(rec.refine_cell, ReadBool(r));
    } else if (key == "prediction") {
      FUSEME_ASSIGN_OR_RETURN(rec.prediction, ReadPredictionJson(r));
      rec.has_prediction = true;
    } else if (key == "error") {
      rec.has_error = true;
      FUSEME_RETURN_IF_ERROR(r.Expect('{'));
      do {
        FUSEME_ASSIGN_OR_RETURN(const std::string k2, r.ReadString());
        FUSEME_RETURN_IF_ERROR(r.Expect(':'));
        if (k2 == "code") {
          FUSEME_ASSIGN_OR_RETURN(rec.error_code, r.ReadString());
        } else if (k2 == "message") {
          FUSEME_ASSIGN_OR_RETURN(rec.error_message, r.ReadString());
        } else {
          FUSEME_RETURN_IF_ERROR(r.SkipValue());
        }
      } while (r.TryConsume(','));
      FUSEME_RETURN_IF_ERROR(r.Expect('}'));
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  return rec;
}

Result<VerifierDiagnostic> ReadDiagnosticJson(JsonReader& r) {
  VerifierDiagnostic d;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (r.TryConsume('}')) return d;
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "rule") {
      FUSEME_ASSIGN_OR_RETURN(d.rule, r.ReadString());
    } else if (key == "node") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t v, r.ReadInt());
      d.node = static_cast<NodeId>(v);
    } else if (key == "message") {
      FUSEME_ASSIGN_OR_RETURN(d.message, r.ReadString());
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  return d;
}

/// floor(log2(density)) with an out-of-band bucket for empty matrices, so
/// "same shape class" tolerates nnz estimation noise but not a sparsity
/// regime change (the plans and cuboids were costed for the recorded
/// density).
int DensityBucket(std::int64_t nnz, std::int64_t cells) {
  if (cells <= 0 || nnz <= 0) return std::numeric_limits<int>::min();
  const double density =
      static_cast<double>(nnz) / static_cast<double>(cells);
  return static_cast<int>(std::floor(std::log2(density)));
}

}  // namespace

Status CheckInputBlockSizes(const Dag& dag,
                            const std::map<NodeId, BlockedMatrix>& inputs,
                            std::int64_t block_size) {
  for (const auto& [id, m] : inputs) {
    if (m.block_size() == block_size) continue;
    std::string name = "v" + std::to_string(id);
    if (id >= 0 && id < dag.num_nodes()) name += " (" + dag.node(id).name + ")";
    return Status::InvalidArgument(
        "input " + name + " is blocked at " + std::to_string(m.block_size()) +
        " but the cluster block size is " + std::to_string(block_size));
  }
  return Status::OK();
}

Status CompiledPlan::CheckCompatible(
    const EngineOptions& options,
    const std::map<NodeId, BlockedMatrix>& inputs) const {
  if (options.system != system_) {
    return Status::InvalidArgument(
        "compiled plan was compiled for system " +
        std::string(SystemModeName(system_)) +
        "; the executing engine runs " +
        std::string(SystemModeName(options.system)));
  }
  if (options.analytic != analytic_) {
    return Status::InvalidArgument(
        std::string("compiled plan was compiled in ") +
        (analytic_ ? "analytic" : "real") +
        " mode; the executing engine runs in " +
        (options.analytic ? "analytic" : "real") + " mode");
  }
  // Only the modeling fields matter: the plans, cuboids, and predictions
  // were chosen for them.  local_threads is documented result-invariant.
  const ClusterConfig& a = cluster_;
  const ClusterConfig& b = options.cluster;
  auto mismatch = [](const char* field, const std::string& artifact,
                     const std::string& engine) {
    return Status::InvalidArgument(
        std::string("compiled plan cluster mismatch: ") + field + " is " +
        artifact + " in the artifact but " + engine +
        " on the executing engine");
  };
  if (a.num_nodes != b.num_nodes) {
    return mismatch("num_nodes", std::to_string(a.num_nodes),
                    std::to_string(b.num_nodes));
  }
  if (a.tasks_per_node != b.tasks_per_node) {
    return mismatch("tasks_per_node", std::to_string(a.tasks_per_node),
                    std::to_string(b.tasks_per_node));
  }
  if (a.task_memory_budget != b.task_memory_budget) {
    return mismatch("task_memory_budget",
                    std::to_string(a.task_memory_budget),
                    std::to_string(b.task_memory_budget));
  }
  if (a.net_bandwidth != b.net_bandwidth) {
    return mismatch("net_bandwidth", JsonDouble(a.net_bandwidth),
                    JsonDouble(b.net_bandwidth));
  }
  if (a.compute_bandwidth != b.compute_bandwidth) {
    return mismatch("compute_bandwidth", JsonDouble(a.compute_bandwidth),
                    JsonDouble(b.compute_bandwidth));
  }
  if (a.block_size != b.block_size) {
    return mismatch("block_size", std::to_string(a.block_size),
                    std::to_string(b.block_size));
  }
  if (a.timeout_seconds != b.timeout_seconds) {
    return mismatch("timeout_seconds", JsonDouble(a.timeout_seconds),
                    JsonDouble(b.timeout_seconds));
  }
  if (a.task_launch_overhead != b.task_launch_overhead) {
    return mismatch("task_launch_overhead",
                    JsonDouble(a.task_launch_overhead),
                    JsonDouble(b.task_launch_overhead));
  }
  if (a.shuffle_cpu_factor != b.shuffle_cpu_factor) {
    return mismatch("shuffle_cpu_factor", JsonDouble(a.shuffle_cpu_factor),
                    JsonDouble(b.shuffle_cpu_factor));
  }
  if (a.overlap_factor != b.overlap_factor) {
    return mismatch("overlap_factor", JsonDouble(a.overlap_factor),
                    JsonDouble(b.overlap_factor));
  }
  FUSEME_RETURN_IF_ERROR(CheckInputBlockSizes(*dag_, inputs, b.block_size));

  for (const auto& [id, m] : inputs) {
    if (id < 0 || id >= dag_->num_nodes()) continue;
    const Node& n = dag_->node(id);
    if (n.kind != OpKind::kInput) continue;
    if (m.rows() != n.rows || m.cols() != n.cols) {
      return Status::InvalidArgument(
          "compiled plan expects input v" + std::to_string(id) + " (" +
          n.name + ") of shape " + std::to_string(n.rows) + "x" +
          std::to_string(n.cols) + ", got " + std::to_string(m.rows()) +
          "x" + std::to_string(m.cols()));
    }
    const std::int64_t cells = n.rows * n.cols;
    const int compiled_bucket = DensityBucket(n.nnz, cells);
    const int bound_bucket = DensityBucket(m.nnz(), cells);
    std::int64_t gap = static_cast<std::int64_t>(compiled_bucket) -
                       static_cast<std::int64_t>(bound_bucket);
    if (gap < 0) gap = -gap;
    if (gap > 1) {
      return Status::InvalidArgument(
          "compiled plan expects input v" + std::to_string(id) + " (" +
          n.name + ") in density bucket 2^" +
          std::to_string(compiled_bucket) + " (nnz " +
          std::to_string(n.nnz) + "), got bucket 2^" +
          std::to_string(bound_bucket) + " (nnz " +
          std::to_string(m.nnz()) +
          "); re-compile for this sparsity class");
    }
  }
  return Status::OK();
}

std::string CompiledPlan::ToJson() const {
  std::string out = "{\"version\":1";
  out += ",\"system\":\"" + std::string(SystemModeName(system_)) + "\"";
  out += ",\"forced\":\"" + ForcedKindName(forced_) + "\"";
  out += std::string(",\"analytic\":") + (analytic_ ? "true" : "false");
  out += ",\"verify\":\"" + std::string(VerifyLevelName(verify_)) + "\"";
  out += std::string(",\"verified\":") + (table_.verified ? "true" : "false");
  out += ",\"description\":\"" + JsonEscape(table_.description) + "\"";
  out += ",\"cluster\":";
  AppendClusterJson(&out, cluster_);

  out += ",\"dag\":{\"nodes\":[";
  for (NodeId id = 0; id < dag_->num_nodes(); ++id) {
    if (id > 0) out += ",";
    AppendNodeJson(&out, dag_->node(id));
  }
  out += "],\"outputs\":[";
  for (std::size_t i = 0; i < dag_->outputs().size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(dag_->outputs()[i]);
  }
  out += "]}";

  out += ",\"plans\":[";
  for (std::size_t i = 0; i < plans_.plans.size(); ++i) {
    if (i > 0) out += ",";
    const PartialPlan& p = plans_.plans[i];
    out += "{\"members\":[";
    for (std::size_t j = 0; j < p.members().size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(p.members()[j]);
    }
    out += "],\"root\":" + std::to_string(p.root()) + "}";
  }
  out += "]";

  out += ",\"stages\":[";
  for (std::size_t i = 0; i < table_.stages.size(); ++i) {
    if (i > 0) out += ",";
    const CompiledStage& s = table_.stages[i];
    out += "{\"kind\":\"" + std::string(OperatorKindName(s.kind)) + "\"";
    out += ",\"solver\":\"" + JsonEscape(s.solver_id) + "\"";
    out += std::string(",\"refine_cell\":") +
           (s.refine_cell ? "true" : "false");
    if (s.prediction_status.ok()) {
      out += ",\"prediction\":";
      AppendPredictionJson(&out, s.prediction);
    } else {
      out += ",\"error\":{\"code\":\"" +
             std::string(StatusCodeName(s.prediction_status.code())) +
             "\",\"message\":\"" +
             JsonEscape(s.prediction_status.message()) + "\"}";
    }
    out += "}";
  }
  out += "]";

  out += ",\"diagnostics\":[";
  for (std::size_t i = 0; i < table_.diagnostics.size(); ++i) {
    if (i > 0) out += ",";
    const VerifierDiagnostic& d = table_.diagnostics[i];
    out += "{\"rule\":\"" + JsonEscape(d.rule) + "\"";
    if (d.node != kInvalidNode) out += ",\"node\":" + std::to_string(d.node);
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"}";
  }
  out += "]}";
  return out;
}

Result<CompiledPlan> CompiledPlan::FromJson(const std::string& json) {
  JsonReader r(json, "compiled plan JSON");
  CompiledPlan out;
  out.dag_ = std::make_unique<Dag>();
  std::vector<PlanRecord> plan_records;
  std::vector<StageRecord> stage_records;
  bool saw_dag = false;

  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  do {
    FUSEME_ASSIGN_OR_RETURN(const std::string key, r.ReadString());
    FUSEME_RETURN_IF_ERROR(r.Expect(':'));
    if (key == "version") {
      FUSEME_ASSIGN_OR_RETURN(const std::int64_t version, r.ReadInt());
      if (version != 1) {
        return r.Error("unsupported version " + std::to_string(version));
      }
    } else if (key == "system") {
      FUSEME_ASSIGN_OR_RETURN(const std::string s, r.ReadString());
      FUSEME_ASSIGN_OR_RETURN(out.system_, ParseSystemMode(s));
    } else if (key == "forced") {
      FUSEME_ASSIGN_OR_RETURN(const std::string s, r.ReadString());
      FUSEME_ASSIGN_OR_RETURN(out.forced_, ParseForcedKind(s));
    } else if (key == "analytic") {
      FUSEME_ASSIGN_OR_RETURN(out.analytic_, ReadBool(r));
    } else if (key == "verify") {
      FUSEME_ASSIGN_OR_RETURN(const std::string s, r.ReadString());
      FUSEME_ASSIGN_OR_RETURN(out.verify_, ParseVerifyLevel(s));
    } else if (key == "verified") {
      FUSEME_ASSIGN_OR_RETURN(out.table_.verified, ReadBool(r));
    } else if (key == "description") {
      FUSEME_ASSIGN_OR_RETURN(out.table_.description, r.ReadString());
    } else if (key == "cluster") {
      FUSEME_RETURN_IF_ERROR(ReadClusterJson(r, &out.cluster_));
    } else if (key == "dag") {
      saw_dag = true;
      FUSEME_RETURN_IF_ERROR(r.Expect('{'));
      do {
        FUSEME_ASSIGN_OR_RETURN(const std::string k2, r.ReadString());
        FUSEME_RETURN_IF_ERROR(r.Expect(':'));
        if (k2 == "nodes") {
          FUSEME_RETURN_IF_ERROR(r.Expect('['));
          NodeId next = 0;
          if (!r.TryConsume(']')) {
            do {
              FUSEME_ASSIGN_OR_RETURN(const NodeRecord rec,
                                      ReadNodeRecord(r));
              FUSEME_RETURN_IF_ERROR(
                  RebuildNode(out.dag_.get(), rec, next).status());
              ++next;
            } while (r.TryConsume(','));
            FUSEME_RETURN_IF_ERROR(r.Expect(']'));
          }
        } else if (k2 == "outputs") {
          FUSEME_ASSIGN_OR_RETURN(const std::vector<std::int64_t> outputs,
                                  ReadIntArray(r));
          for (const std::int64_t o : outputs) {
            if (o < 0 || o >= out.dag_->num_nodes()) {
              return Status::InvalidArgument(
                  "compiled plan JSON: output v" + std::to_string(o) +
                  " is not a DAG node");
            }
            out.dag_->MarkOutput(static_cast<NodeId>(o));
          }
        } else {
          FUSEME_RETURN_IF_ERROR(r.SkipValue());
        }
      } while (r.TryConsume(','));
      FUSEME_RETURN_IF_ERROR(r.Expect('}'));
    } else if (key == "plans") {
      FUSEME_RETURN_IF_ERROR(r.Expect('['));
      if (!r.TryConsume(']')) {
        do {
          FUSEME_ASSIGN_OR_RETURN(const PlanRecord rec, ReadPlanRecord(r));
          plan_records.push_back(rec);
        } while (r.TryConsume(','));
        FUSEME_RETURN_IF_ERROR(r.Expect(']'));
      }
    } else if (key == "stages") {
      FUSEME_RETURN_IF_ERROR(r.Expect('['));
      if (!r.TryConsume(']')) {
        do {
          FUSEME_ASSIGN_OR_RETURN(const StageRecord rec, ReadStageRecord(r));
          stage_records.push_back(rec);
        } while (r.TryConsume(','));
        FUSEME_RETURN_IF_ERROR(r.Expect(']'));
      }
    } else if (key == "diagnostics") {
      FUSEME_RETURN_IF_ERROR(r.Expect('['));
      if (!r.TryConsume(']')) {
        do {
          FUSEME_ASSIGN_OR_RETURN(const VerifierDiagnostic d,
                                  ReadDiagnosticJson(r));
          out.table_.diagnostics.push_back(d);
        } while (r.TryConsume(','));
        FUSEME_RETURN_IF_ERROR(r.Expect(']'));
      }
    } else {
      FUSEME_RETURN_IF_ERROR(r.SkipValue());
    }
  } while (r.TryConsume(','));
  FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  if (!saw_dag) {
    return Status::InvalidArgument("compiled plan JSON: missing dag");
  }

  // Plans reference the artifact's own DAG copy (stable address — the
  // unique_ptr never reseats).
  for (std::size_t i = 0; i < plan_records.size(); ++i) {
    FUSEME_ASSIGN_OR_RETURN(PartialPlan plan,
                            RebuildPlan(*out.dag_, plan_records[i], i));
    out.plans_.plans.push_back(std::move(plan));
  }
  out.plans_.description = out.table_.description;

  if (stage_records.size() != plan_records.size()) {
    return Status::InvalidArgument(
        "compiled plan JSON: " + std::to_string(stage_records.size()) +
        " stage(s) for " + std::to_string(plan_records.size()) + " plan(s)");
  }
  const SolverRegistry& registry = SolverRegistry::Global();
  for (std::size_t i = 0; i < stage_records.size(); ++i) {
    const StageRecord& rec = stage_records[i];
    CompiledStage stage;
    FUSEME_ASSIGN_OR_RETURN(stage.kind, ParseStageKind(rec.kind));
    stage.solver_id = rec.solver;
    stage.refine_cell = rec.refine_cell;
    const NodeId stage_root = out.plans_.plans[i].root();
    const StageSolver* solver = registry.Find(rec.solver);
    if (solver == nullptr || solver->kind() != stage.kind) {
      const VerifierDiagnostic d{
          rules::kCompiledSolver, stage_root,
          solver == nullptr
              ? "stage " + std::to_string(i) + " names unknown solver \"" +
                    rec.solver + "\""
              : "stage " + std::to_string(i) + " solver \"" + rec.solver +
                    "\" implements " +
                    std::string(OperatorKindName(solver->kind())) +
                    ", not the stage's " + rec.kind};
      return Status::InvalidArgument("compiled plan JSON: " + d.ToString());
    }
    if (rec.has_prediction == rec.has_error) {
      const VerifierDiagnostic d{
          rules::kCompiledPrediction, stage_root,
          "stage " + std::to_string(i) +
              (rec.has_prediction ? " carries both a prediction and an error"
                                  : " carries neither a prediction nor an "
                                    "error")};
      return Status::InvalidArgument("compiled plan JSON: " + d.ToString());
    }
    if (rec.has_prediction) {
      stage.prediction = rec.prediction;
      stage.prediction.operator_kind = OperatorKindName(stage.kind);
    } else {
      FUSEME_ASSIGN_OR_RETURN(const StatusCode code,
                              ParseStatusCode(rec.error_code));
      stage.prediction_status = Status(code, rec.error_message);
    }
    out.table_.stages.push_back(std::move(stage));
  }

  // A clean artifact must still verify cleanly against its own cluster:
  // fresh diagnostics mean the JSON was edited (or produced by a drifted
  // build) and the cached "verified, no findings" claim is stale.
  if (out.table_.verified && out.table_.diagnostics.empty()) {
    const CostModel model(out.cluster_);
    const PlanVerifier verifier(&model);
    const std::vector<VerifierDiagnostic> diags =
        verifier.Verify(*out.dag_, out.plans_, out.verify_);
    if (!diags.empty()) {
      return Status::InvalidArgument(
          "compiled plan failed re-verification: " +
          diags.front().ToString());
    }
  }
  return out;
}

}  // namespace fuseme
