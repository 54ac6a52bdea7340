#include "ir/dag.h"

#include <algorithm>

#include "common/logging.h"
#include "matrix/sparsity.h"

namespace fuseme {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "input";
    case OpKind::kScalar:
      return "scalar";
    case OpKind::kUnary:
      return "u";
    case OpKind::kBinary:
      return "b";
    case OpKind::kMatMul:
      return "ba(x)";
    case OpKind::kUnaryAgg:
      return "ua";
    case OpKind::kTranspose:
      return "r(T)";
  }
  return "?";
}

std::string_view AggAxisName(AggAxis axis) {
  switch (axis) {
    case AggAxis::kAll:
      return "all";
    case AggAxis::kRow:
      return "row";
    case AggAxis::kCol:
      return "col";
  }
  return "?";
}

std::string Node::Label() const {
  switch (kind) {
    case OpKind::kInput:
      return name;
    case OpKind::kScalar:
      return std::to_string(scalar);
    case OpKind::kUnary:
      return "u(" + std::string(UnaryFnName(unary_fn)) + ")";
    case OpKind::kBinary:
      return "b(" + std::string(BinaryFnName(binary_fn)) + ")";
    case OpKind::kMatMul:
      return "ba(x)";
    case OpKind::kUnaryAgg:
      return "ua(" + std::string(AggFnName(agg_fn)) + "," +
             std::string(AggAxisName(agg_axis)) + ")";
    case OpKind::kTranspose:
      return "r(T)";
  }
  return "?";
}

Status Dag::CheckId(NodeId id) const {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("unknown node id " + std::to_string(id));
  }
  return Status::OK();
}

Result<NodeId> Dag::Push(Node node) {
  node.id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

Result<NodeId> Dag::AddInput(std::string name, std::int64_t rows,
                             std::int64_t cols, std::int64_t nnz) {
  if (rows <= 0 || cols <= 0) {
    return Status::InvalidArgument("input '" + name +
                                   "' must have positive dimensions");
  }
  std::int64_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells)) {
    return Status::InvalidArgument("input '" + name +
                                   "' has more cells than int64 holds");
  }
  Node n;
  n.kind = OpKind::kInput;
  n.name = std::move(name);
  n.rows = rows;
  n.cols = cols;
  n.nnz = nnz < 0 ? cells : std::min(nnz, cells);
  return Push(std::move(n));
}

Result<NodeId> Dag::AddScalar(double value) {
  Node n;
  n.kind = OpKind::kScalar;
  n.scalar = value;
  n.rows = 1;
  n.cols = 1;
  n.nnz = value != 0.0 ? 1 : 0;
  return Push(std::move(n));
}

Result<NodeId> Dag::AddUnary(UnaryFn fn, NodeId input) {
  FUSEME_RETURN_IF_ERROR(CheckId(input));
  const Node& in = nodes_[input];
  if (!in.is_matrix()) {
    return Status::InvalidArgument("unary operator requires a matrix input");
  }
  Node n;
  n.kind = OpKind::kUnary;
  n.unary_fn = fn;
  n.inputs = {input};
  n.rows = in.rows;
  n.cols = in.cols;
  n.nnz = EstimateUnaryNnz(fn, in.rows, in.cols, in.nnz);
  return Push(std::move(n));
}

Result<NodeId> Dag::AddBinary(BinaryFn fn, NodeId lhs, NodeId rhs) {
  FUSEME_RETURN_IF_ERROR(CheckId(lhs));
  FUSEME_RETURN_IF_ERROR(CheckId(rhs));
  const Node& a = nodes_[lhs];
  const Node& b = nodes_[rhs];
  const bool a_scalar = a.kind == OpKind::kScalar;
  const bool b_scalar = b.kind == OpKind::kScalar;
  if (a_scalar && b_scalar) {
    return Status::InvalidArgument(
        "binary operator on two scalars: fold it instead");
  }
  Node n;
  n.kind = OpKind::kBinary;
  n.binary_fn = fn;
  n.inputs = {lhs, rhs};
  if (a_scalar || b_scalar) {
    const Node& m = a_scalar ? b : a;
    const Node& s = a_scalar ? a : b;
    n.rows = m.rows;
    n.cols = m.cols;
    n.nnz = EstimateEwiseScalarNnz(fn, m.rows, m.cols, m.nnz, s.scalar,
                                   /*scalar_left=*/a_scalar);
  } else {
    if (a.rows != b.rows || a.cols != b.cols) {
      return Status::InvalidArgument(
          "binary operator shape mismatch: " + std::to_string(a.rows) + "x" +
          std::to_string(a.cols) + " vs " + std::to_string(b.rows) + "x" +
          std::to_string(b.cols));
    }
    n.rows = a.rows;
    n.cols = a.cols;
    n.nnz = EstimateEwiseBinaryNnz(fn, a.rows, a.cols, a.nnz, b.nnz);
  }
  return Push(std::move(n));
}

Result<NodeId> Dag::AddMatMul(NodeId lhs, NodeId rhs) {
  FUSEME_RETURN_IF_ERROR(CheckId(lhs));
  FUSEME_RETURN_IF_ERROR(CheckId(rhs));
  const Node& a = nodes_[lhs];
  const Node& b = nodes_[rhs];
  if (!a.is_matrix() || !b.is_matrix()) {
    return Status::InvalidArgument("matmul requires matrix inputs");
  }
  if (a.cols != b.rows) {
    return Status::InvalidArgument(
        "matmul inner dimension mismatch: " + std::to_string(a.cols) +
        " vs " + std::to_string(b.rows));
  }
  Node n;
  n.kind = OpKind::kMatMul;
  n.inputs = {lhs, rhs};
  n.rows = a.rows;
  n.cols = b.cols;
  n.nnz = EstimateMatMulNnz(a.rows, a.cols, b.cols, a.nnz, b.nnz);
  return Push(std::move(n));
}

Result<NodeId> Dag::AddUnaryAgg(AggFn fn, AggAxis axis, NodeId input) {
  FUSEME_RETURN_IF_ERROR(CheckId(input));
  const Node& in = nodes_[input];
  if (!in.is_matrix()) {
    return Status::InvalidArgument("aggregation requires a matrix input");
  }
  Node n;
  n.kind = OpKind::kUnaryAgg;
  n.agg_fn = fn;
  n.agg_axis = axis;
  n.inputs = {input};
  switch (axis) {
    case AggAxis::kAll:
      n.rows = 1;
      n.cols = 1;
      break;
    case AggAxis::kRow:
      n.rows = in.rows;
      n.cols = 1;
      break;
    case AggAxis::kCol:
      n.rows = 1;
      n.cols = in.cols;
      break;
  }
  n.nnz = n.rows * n.cols;  // aggregates are effectively dense
  return Push(std::move(n));
}

Result<NodeId> Dag::AddTranspose(NodeId input) {
  FUSEME_RETURN_IF_ERROR(CheckId(input));
  const Node& in = nodes_[input];
  if (!in.is_matrix()) {
    return Status::InvalidArgument("transpose requires a matrix input");
  }
  Node n;
  n.kind = OpKind::kTranspose;
  n.inputs = {input};
  n.rows = in.cols;
  n.cols = in.rows;
  n.nnz = in.nnz;
  return Push(std::move(n));
}

void Dag::MarkOutput(NodeId id) {
  FUSEME_CHECK(id >= 0 && id < num_nodes());
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) {
    outputs_.push_back(id);
  }
}

std::vector<NodeId> Dag::Consumers(NodeId id) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (std::find(n.inputs.begin(), n.inputs.end(), id) != n.inputs.end()) {
      out.push_back(n.id);
    }
  }
  return out;
}

int Dag::FanOut(NodeId id) const {
  int count = 0;
  for (const Node& n : nodes_) {
    // Count each consuming edge (a node may consume `id` twice, e.g. X*X).
    count += static_cast<int>(
        std::count(n.inputs.begin(), n.inputs.end(), id));
  }
  if (std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end()) {
    ++count;
  }
  return count;
}

std::vector<NodeId> Dag::TopologicalOrder() const {
  std::vector<NodeId> order(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    order[i] = static_cast<NodeId>(i);
  }
  return order;
}

std::vector<NodeId> Dag::MatMulNodes() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == OpKind::kMatMul) out.push_back(n.id);
  }
  return out;
}

}  // namespace fuseme
