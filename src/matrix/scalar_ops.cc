#include "matrix/scalar_ops.h"

#include <cstdlib>

#include "common/logging.h"

namespace fuseme {

void UnknownScalarFn(const char* type, int value) {
  FUSEME_CHECK(false) << "unknown " << type << " " << value;
  std::abort();  // not reached: a failed check aborts
}

double ApplyUnary(UnaryFn fn, double x) {
  return VisitUnaryFn(
      fn, [x](auto op) { return UnaryOp<decltype(op)::value>(x); });
}

double ApplyBinary(BinaryFn fn, double x, double y) {
  return VisitBinaryFn(
      fn, [x, y](auto op) { return BinaryOp<decltype(op)::value>(x, y); });
}

bool UnaryPreservesZero(UnaryFn fn) {
  switch (fn) {
    case UnaryFn::kIdentity:
    case UnaryFn::kNeg:
    case UnaryFn::kSqrt:
    case UnaryFn::kSquare:
    case UnaryFn::kAbs:
    case UnaryFn::kRelu:
    case UnaryFn::kSin:
    case UnaryFn::kNotZero:
      return true;
    default:
      return false;
  }
}

bool BinaryZeroDominant(BinaryFn fn) { return fn == BinaryFn::kMul; }

std::string_view UnaryFnName(UnaryFn fn) {
  switch (fn) {
    case UnaryFn::kIdentity:
      return "id";
    case UnaryFn::kNeg:
      return "neg";
    case UnaryFn::kExp:
      return "exp";
    case UnaryFn::kLog:
      return "log";
    case UnaryFn::kSqrt:
      return "sqrt";
    case UnaryFn::kSquare:
      return "^2";
    case UnaryFn::kAbs:
      return "abs";
    case UnaryFn::kSigmoid:
      return "sigmoid";
    case UnaryFn::kRelu:
      return "relu";
    case UnaryFn::kSin:
      return "sin";
    case UnaryFn::kCos:
      return "cos";
    case UnaryFn::kNotZero:
      return "!=0";
    case UnaryFn::kReciprocal:
      return "recip";
  }
  return "?";
}

std::string_view BinaryFnName(BinaryFn fn) {
  switch (fn) {
    case BinaryFn::kAdd:
      return "+";
    case BinaryFn::kSub:
      return "-";
    case BinaryFn::kMul:
      return "*";
    case BinaryFn::kDiv:
      return "/";
    case BinaryFn::kMin:
      return "min";
    case BinaryFn::kMax:
      return "max";
    case BinaryFn::kPow:
      return "pow";
    case BinaryFn::kEqual:
      return "==";
    case BinaryFn::kNotEqual:
      return "!=";
    case BinaryFn::kGreater:
      return ">";
    case BinaryFn::kLess:
      return "<";
  }
  return "?";
}

std::string_view AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "sum";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
  }
  return "?";
}

}  // namespace fuseme
