// Scalar operation vocabulary shared by the local kernels and the IR.
//
// The paper's operator taxonomy (§2.1) has five operator types; unary and
// binary operators are parameterized by a scalar function from this file.

#ifndef FUSEME_MATRIX_SCALAR_OPS_H_
#define FUSEME_MATRIX_SCALAR_OPS_H_

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace fuseme {

/// Element-wise unary functions, e.g. u(log), u(^2) in the paper's figures.
enum class UnaryFn {
  kIdentity,
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kSquare,        // ^2 — the ALS weighted-loss example (Fig. 1(a))
  kAbs,
  kSigmoid,
  kRelu,
  kSin,
  kCos,
  kNotZero,       // (x != 0) — sparsity indicator used by weighted loss
  kReciprocal,
};

/// Element-wise binary functions, e.g. b(*), b(/) in the paper's figures.
enum class BinaryFn {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMin,
  kMax,
  kPow,
  kEqual,
  kNotEqual,
  kGreater,
  kLess,
};

/// Aggregation functions for unary aggregations (sum / rowSums / colSums)
/// and the reduction side of binary aggregation (matrix multiply uses kSum).
enum class AggFn {
  kSum,
  kMin,
  kMax,
};

/// The one definition of each scalar function.  ApplyUnary/ApplyBinary
/// and the block kernels' per-op loops (block_ops.cc) all evaluate these,
/// so a per-cell call and a loop the compiler vectorises compute the same
/// expression and round the same way.
template <UnaryFn F>
inline double UnaryOp(double x) {
  if constexpr (F == UnaryFn::kIdentity) {
    return x;
  } else if constexpr (F == UnaryFn::kNeg) {
    return -x;
  } else if constexpr (F == UnaryFn::kExp) {
    return std::exp(x);
  } else if constexpr (F == UnaryFn::kLog) {
    return std::log(x);
  } else if constexpr (F == UnaryFn::kSqrt) {
    return std::sqrt(x);
  } else if constexpr (F == UnaryFn::kSquare) {
    return x * x;
  } else if constexpr (F == UnaryFn::kAbs) {
    return std::fabs(x);
  } else if constexpr (F == UnaryFn::kSigmoid) {
    return 1.0 / (1.0 + std::exp(-x));
  } else if constexpr (F == UnaryFn::kRelu) {
    return x > 0.0 ? x : 0.0;
  } else if constexpr (F == UnaryFn::kSin) {
    return std::sin(x);
  } else if constexpr (F == UnaryFn::kCos) {
    return std::cos(x);
  } else if constexpr (F == UnaryFn::kNotZero) {
    return x != 0.0 ? 1.0 : 0.0;
  } else {
    static_assert(F == UnaryFn::kReciprocal);
    return 1.0 / x;
  }
}

template <BinaryFn F>
inline double BinaryOp(double x, double y) {
  if constexpr (F == BinaryFn::kAdd) {
    return x + y;
  } else if constexpr (F == BinaryFn::kSub) {
    return x - y;
  } else if constexpr (F == BinaryFn::kMul) {
    return x * y;
  } else if constexpr (F == BinaryFn::kDiv) {
    return x / y;
  } else if constexpr (F == BinaryFn::kMin) {
    return std::min(x, y);
  } else if constexpr (F == BinaryFn::kMax) {
    return std::max(x, y);
  } else if constexpr (F == BinaryFn::kPow) {
    return std::pow(x, y);
  } else if constexpr (F == BinaryFn::kEqual) {
    return x == y ? 1.0 : 0.0;
  } else if constexpr (F == BinaryFn::kNotEqual) {
    return x != y ? 1.0 : 0.0;
  } else if constexpr (F == BinaryFn::kGreater) {
    return x > y ? 1.0 : 0.0;
  } else {
    static_assert(F == BinaryFn::kLess);
    return x < y ? 1.0 : 0.0;
  }
}

/// Aborts on an enumerator outside the declared set.
[[noreturn]] void UnknownScalarFn(const char* type, int value);

/// Calls `body(std::integral_constant<UnaryFn, F>{})` with F == fn: the
/// one runtime switch, after which `body` runs a single op throughout.
template <typename Body>
decltype(auto) VisitUnaryFn(UnaryFn fn, Body&& body) {
  using F = UnaryFn;
  switch (fn) {
    case F::kIdentity: return body(std::integral_constant<F, F::kIdentity>{});
    case F::kNeg: return body(std::integral_constant<F, F::kNeg>{});
    case F::kExp: return body(std::integral_constant<F, F::kExp>{});
    case F::kLog: return body(std::integral_constant<F, F::kLog>{});
    case F::kSqrt: return body(std::integral_constant<F, F::kSqrt>{});
    case F::kSquare: return body(std::integral_constant<F, F::kSquare>{});
    case F::kAbs: return body(std::integral_constant<F, F::kAbs>{});
    case F::kSigmoid: return body(std::integral_constant<F, F::kSigmoid>{});
    case F::kRelu: return body(std::integral_constant<F, F::kRelu>{});
    case F::kSin: return body(std::integral_constant<F, F::kSin>{});
    case F::kCos: return body(std::integral_constant<F, F::kCos>{});
    case F::kNotZero: return body(std::integral_constant<F, F::kNotZero>{});
    case F::kReciprocal:
      return body(std::integral_constant<F, F::kReciprocal>{});
  }
  UnknownScalarFn("UnaryFn", static_cast<int>(fn));
}

/// VisitUnaryFn's twin for BinaryFn.
template <typename Body>
decltype(auto) VisitBinaryFn(BinaryFn fn, Body&& body) {
  using F = BinaryFn;
  switch (fn) {
    case F::kAdd: return body(std::integral_constant<F, F::kAdd>{});
    case F::kSub: return body(std::integral_constant<F, F::kSub>{});
    case F::kMul: return body(std::integral_constant<F, F::kMul>{});
    case F::kDiv: return body(std::integral_constant<F, F::kDiv>{});
    case F::kMin: return body(std::integral_constant<F, F::kMin>{});
    case F::kMax: return body(std::integral_constant<F, F::kMax>{});
    case F::kPow: return body(std::integral_constant<F, F::kPow>{});
    case F::kEqual: return body(std::integral_constant<F, F::kEqual>{});
    case F::kNotEqual: return body(std::integral_constant<F, F::kNotEqual>{});
    case F::kGreater: return body(std::integral_constant<F, F::kGreater>{});
    case F::kLess: return body(std::integral_constant<F, F::kLess>{});
  }
  UnknownScalarFn("BinaryFn", static_cast<int>(fn));
}

/// Applies a unary scalar function.
double ApplyUnary(UnaryFn fn, double x);

/// Applies a binary scalar function.
double ApplyBinary(BinaryFn fn, double x, double y);

/// True when fn(0) == 0, i.e. the function preserves sparsity.
bool UnaryPreservesZero(UnaryFn fn);

/// True when fn(0, y) == 0 for all y (kMul only among the supported set
/// guarantees this for the *left* operand being zero AND right arbitrary).
bool BinaryZeroDominant(BinaryFn fn);

std::string_view UnaryFnName(UnaryFn fn);
std::string_view BinaryFnName(BinaryFn fn);
std::string_view AggFnName(AggFn fn);

}  // namespace fuseme

#endif  // FUSEME_MATRIX_SCALAR_OPS_H_
