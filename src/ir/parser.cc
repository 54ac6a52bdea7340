#include "ir/parser.h"

#include <cctype>
#include <vector>

#include "telemetry/metric_names.h"
#include "telemetry/metrics.h"

namespace fuseme {

namespace {

enum class TokKind {
  kNumber,
  kIdent,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kCaret,
  kMatMul,  // %*%
  kLParen,
  kRParen,
  kComma,
  kEq,   // ==
  kNeq,  // !=
  kLt,
  kGt,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  double number = 0.0;
  std::size_t pos = 0;
};

Status SyntaxError(std::size_t pos, const std::string& what) {
  return Status::InvalidArgument("parse error at offset " +
                                 std::to_string(pos) + ": " + what);
}

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      const std::size_t pos = i_;
      if (i_ >= text_.size()) {
        out.push_back({TokKind::kEnd, "", 0.0, pos});
        return out;
      }
      const char c = text_[i_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
        std::size_t used = 0;
        double value = 0.0;
        try {
          value = std::stod(std::string(text_.substr(i_)), &used);
        } catch (...) {
          return SyntaxError(pos, "bad number");
        }
        i_ += used;
        out.push_back({TokKind::kNumber, "", value, pos});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i_;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        out.push_back({TokKind::kIdent,
                       std::string(text_.substr(i_, j - i_)), 0.0, pos});
        i_ = j;
        continue;
      }
      if (text_.substr(i_, 3) == "%*%") {
        out.push_back({TokKind::kMatMul, "%*%", 0.0, pos});
        i_ += 3;
        continue;
      }
      if (text_.substr(i_, 2) == "==") {
        out.push_back({TokKind::kEq, "==", 0.0, pos});
        i_ += 2;
        continue;
      }
      if (text_.substr(i_, 2) == "!=") {
        out.push_back({TokKind::kNeq, "!=", 0.0, pos});
        i_ += 2;
        continue;
      }
      TokKind kind;
      switch (c) {
        case '+':
          kind = TokKind::kPlus;
          break;
        case '-':
          kind = TokKind::kMinus;
          break;
        case '*':
          kind = TokKind::kStar;
          break;
        case '/':
          kind = TokKind::kSlash;
          break;
        case '^':
          kind = TokKind::kCaret;
          break;
        case '(':
          kind = TokKind::kLParen;
          break;
        case ')':
          kind = TokKind::kRParen;
          break;
        case ',':
          kind = TokKind::kComma;
          break;
        case '<':
          kind = TokKind::kLt;
          break;
        case '>':
          kind = TokKind::kGt;
          break;
        default:
          return SyntaxError(pos, std::string("unexpected character '") + c +
                                      "'");
      }
      out.push_back({kind, std::string(1, c), 0.0, pos});
      ++i_;
    }
  }

 private:
  void SkipSpace() {
    while (i_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[i_]))) {
      ++i_;
    }
  }

  std::string_view text_;
  std::size_t i_ = 0;
};

/// Deepest recursion the descent accepts, counted in active ParsePower /
/// ParseUnary frames: a parenthesis or function call nests two, a leading
/// '-' or a '^' one.  Deeper queries are rejected instead of overflowing
/// the stack.
constexpr int kMaxNestingDepth = 500;

class Parser {
 public:
  Parser(std::vector<Token> tokens, Dag* dag,
         const std::map<std::string, MatrixShape>& symbols,
         std::map<std::string, NodeId>* bound)
      : tokens_(std::move(tokens)),
        dag_(dag),
        symbols_(symbols),
        bound_(bound) {}

  Result<NodeId> Parse() {
    FUSEME_ASSIGN_OR_RETURN(NodeId root, ParseExpr());
    if (Peek().kind != TokKind::kEnd) {
      return SyntaxError(Peek().pos, "trailing input");
    }
    return root;
  }

 private:
  const Token& Peek() const { return tokens_[i_]; }
  Token Next() { return tokens_[i_++]; }
  bool Accept(TokKind kind) {
    if (Peek().kind == kind) {
      ++i_;
      return true;
    }
    return false;
  }

  /// Binary node with scalar-aware shape validation delegated to Dag.
  Result<NodeId> MakeBinary(BinaryFn fn, NodeId lhs, NodeId rhs,
                            std::size_t pos) {
    Result<NodeId> made = dag_->AddBinary(fn, lhs, rhs);
    if (!made.ok()) return SyntaxError(pos, made.status().message());
    return made;
  }

  Result<NodeId> ParseExpr() {
    FUSEME_ASSIGN_OR_RETURN(NodeId lhs, ParseCmp());
    while (Peek().kind == TokKind::kPlus || Peek().kind == TokKind::kMinus) {
      Token op = Next();
      FUSEME_ASSIGN_OR_RETURN(NodeId rhs, ParseCmp());
      FUSEME_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op.kind == TokKind::kPlus ? BinaryFn::kAdd
                                                    : BinaryFn::kSub,
                          lhs, rhs, op.pos));
    }
    return lhs;
  }

  Result<NodeId> ParseCmp() {
    FUSEME_ASSIGN_OR_RETURN(NodeId lhs, ParseTerm());
    while (true) {
      BinaryFn fn;
      switch (Peek().kind) {
        case TokKind::kEq:
          fn = BinaryFn::kEqual;
          break;
        case TokKind::kNeq:
          fn = BinaryFn::kNotEqual;
          break;
        case TokKind::kLt:
          fn = BinaryFn::kLess;
          break;
        case TokKind::kGt:
          fn = BinaryFn::kGreater;
          break;
        default:
          return lhs;
      }
      Token op = Next();
      FUSEME_ASSIGN_OR_RETURN(NodeId rhs, ParseTerm());
      FUSEME_ASSIGN_OR_RETURN(lhs, MakeBinary(fn, lhs, rhs, op.pos));
    }
  }

  Result<NodeId> ParseTerm() {
    FUSEME_ASSIGN_OR_RETURN(NodeId lhs, ParsePower());
    while (Peek().kind == TokKind::kStar || Peek().kind == TokKind::kSlash) {
      Token op = Next();
      FUSEME_ASSIGN_OR_RETURN(NodeId rhs, ParsePower());
      FUSEME_ASSIGN_OR_RETURN(
          lhs, MakeBinary(op.kind == TokKind::kStar ? BinaryFn::kMul
                                                    : BinaryFn::kDiv,
                          lhs, rhs, op.pos));
    }
    return lhs;
  }

  /// Counts one level of recursion for its lifetime.
  struct DepthScope {
    explicit DepthScope(int* depth) : depth(depth) { ++*depth; }
    ~DepthScope() { --*depth; }
    DepthScope(const DepthScope&) = delete;
    DepthScope& operator=(const DepthScope&) = delete;
    int* depth;
  };

  Status CheckDepth() const {
    if (depth_ <= kMaxNestingDepth) return Status::OK();
    return SyntaxError(Peek().pos,
                       "expression nests deeper than the limit of " +
                           std::to_string(kMaxNestingDepth) + " levels");
  }

  Result<NodeId> ParsePower() {
    const DepthScope scope(&depth_);
    FUSEME_RETURN_IF_ERROR(CheckDepth());
    FUSEME_ASSIGN_OR_RETURN(NodeId base, ParseMatMul());
    if (Peek().kind != TokKind::kCaret) return base;
    Token op = Next();
    // '^ 2' lowers to the unary square (the fused-operator friendly form).
    if (Peek().kind == TokKind::kNumber && Peek().number == 2.0) {
      Next();
      Result<NodeId> made = dag_->AddUnary(UnaryFn::kSquare, base);
      if (!made.ok()) return SyntaxError(op.pos, made.status().message());
      return made;
    }
    FUSEME_ASSIGN_OR_RETURN(NodeId exp, ParsePower());  // right-assoc
    return MakeBinary(BinaryFn::kPow, base, exp, op.pos);
  }

  Result<NodeId> ParseMatMul() {
    FUSEME_ASSIGN_OR_RETURN(NodeId lhs, ParseUnary());
    while (Peek().kind == TokKind::kMatMul) {
      Token op = Next();
      FUSEME_ASSIGN_OR_RETURN(NodeId rhs, ParseUnary());
      Result<NodeId> made = dag_->AddMatMul(lhs, rhs);
      if (!made.ok()) return SyntaxError(op.pos, made.status().message());
      lhs = *made;
    }
    return lhs;
  }

  Result<NodeId> ParseUnary() {
    const DepthScope scope(&depth_);
    FUSEME_RETURN_IF_ERROR(CheckDepth());
    if (Peek().kind == TokKind::kMinus) {
      Token op = Next();
      FUSEME_ASSIGN_OR_RETURN(NodeId operand, ParseUnary());
      Result<NodeId> made = dag_->AddUnary(UnaryFn::kNeg, operand);
      if (!made.ok()) return SyntaxError(op.pos, made.status().message());
      return made;
    }
    return ParsePrimary();
  }

  Result<NodeId> ParseFunction(const Token& name) {
    // Collect arguments.
    std::vector<NodeId> args;
    if (!Accept(TokKind::kLParen)) {
      return SyntaxError(name.pos, "expected '(' after " + name.text);
    }
    if (!Accept(TokKind::kRParen)) {
      do {
        FUSEME_ASSIGN_OR_RETURN(NodeId arg, ParseExpr());
        args.push_back(arg);
      } while (Accept(TokKind::kComma));
      if (!Accept(TokKind::kRParen)) {
        return SyntaxError(Peek().pos, "expected ')'");
      }
    }
    auto unary = [&](UnaryFn fn) -> Result<NodeId> {
      if (args.size() != 1) {
        return SyntaxError(name.pos, name.text + " takes one argument");
      }
      Result<NodeId> made = dag_->AddUnary(fn, args[0]);
      if (!made.ok()) return SyntaxError(name.pos, made.status().message());
      return made;
    };
    auto agg = [&](AggFn fn, AggAxis axis) -> Result<NodeId> {
      if (args.size() != 1) {
        return SyntaxError(name.pos, name.text + " takes one argument");
      }
      Result<NodeId> made = dag_->AddUnaryAgg(fn, axis, args[0]);
      if (!made.ok()) return SyntaxError(name.pos, made.status().message());
      return made;
    };
    auto binary = [&](BinaryFn fn) -> Result<NodeId> {
      if (args.size() != 2) {
        return SyntaxError(name.pos, name.text + " takes two arguments");
      }
      return MakeBinary(fn, args[0], args[1], name.pos);
    };

    const std::string& f = name.text;
    if (f == "t") {
      if (args.size() != 1) {
        return SyntaxError(name.pos, "t takes one argument");
      }
      Result<NodeId> made = dag_->AddTranspose(args[0]);
      if (!made.ok()) return SyntaxError(name.pos, made.status().message());
      return made;
    }
    if (f == "log") return unary(UnaryFn::kLog);
    if (f == "exp") return unary(UnaryFn::kExp);
    if (f == "sqrt") return unary(UnaryFn::kSqrt);
    if (f == "abs") return unary(UnaryFn::kAbs);
    if (f == "sigmoid") return unary(UnaryFn::kSigmoid);
    if (f == "relu") return unary(UnaryFn::kRelu);
    if (f == "sq" || f == "square") return unary(UnaryFn::kSquare);
    if (f == "nz") return unary(UnaryFn::kNotZero);
    if (f == "sum") return agg(AggFn::kSum, AggAxis::kAll);
    if (f == "rowSums") return agg(AggFn::kSum, AggAxis::kRow);
    if (f == "colSums") return agg(AggFn::kSum, AggAxis::kCol);
    if (f == "min") return binary(BinaryFn::kMin);
    if (f == "max") return binary(BinaryFn::kMax);
    if (f == "pow") return binary(BinaryFn::kPow);
    return SyntaxError(name.pos, "unknown function '" + f + "'");
  }

  Result<NodeId> ParsePrimary() {
    Token tok = Next();
    switch (tok.kind) {
      case TokKind::kNumber: {
        Result<NodeId> made = dag_->AddScalar(tok.number);
        if (!made.ok()) return SyntaxError(tok.pos, made.status().message());
        return made;
      }
      case TokKind::kLParen: {
        FUSEME_ASSIGN_OR_RETURN(NodeId inner, ParseExpr());
        if (!Accept(TokKind::kRParen)) {
          return SyntaxError(Peek().pos, "expected ')'");
        }
        return inner;
      }
      case TokKind::kIdent: {
        if (Peek().kind == TokKind::kLParen) return ParseFunction(tok);
        // Matrix identifier.
        if (auto it = bound_->find(tok.text); it != bound_->end()) {
          return it->second;
        }
        auto sym = symbols_.find(tok.text);
        if (sym == symbols_.end()) {
          return SyntaxError(tok.pos, "unknown matrix '" + tok.text + "'");
        }
        const MatrixShape& shape = sym->second;
        Result<NodeId> made =
            dag_->AddInput(tok.text, shape.rows, shape.cols, shape.nnz);
        if (!made.ok()) return SyntaxError(tok.pos, made.status().message());
        // AddInput checked that rows * cols fits in int64.  It would clamp
        // an nnz above that; from a symbol table it is a mistake.
        if (shape.nnz > shape.rows * shape.cols) {
          return SyntaxError(tok.pos, "matrix '" + tok.text +
                                          "' declares nnz " +
                                          std::to_string(shape.nnz) +
                                          " > rows * cols");
        }
        bound_->emplace(tok.text, *made);
        return made;
      }
      default:
        return SyntaxError(tok.pos, "unexpected token '" + tok.text + "'");
    }
  }

  std::vector<Token> tokens_;
  std::size_t i_ = 0;
  int depth_ = 0;
  Dag* dag_;
  const std::map<std::string, MatrixShape>& symbols_;
  std::map<std::string, NodeId>* bound_;
};

Result<ParsedQuery> ParseQueryImpl(
    std::string_view text,
    const std::map<std::string, MatrixShape>& symbols) {
  Lexer lexer(text);
  FUSEME_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  ParsedQuery query;
  query.dag = std::make_unique<Dag>();
  Parser parser(std::move(tokens), query.dag.get(), symbols, &query.inputs);
  FUSEME_ASSIGN_OR_RETURN(query.root, parser.Parse());
  const Node& root = query.dag->node(query.root);
  if (!root.is_matrix() && root.kind == OpKind::kScalar) {
    return Status::InvalidArgument("query reduces to a scalar literal");
  }
  query.dag->MarkOutput(query.root);
  return query;
}

}  // namespace

Result<ParsedQuery> ParseQuery(
    std::string_view text, const std::map<std::string, MatrixShape>& symbols,
    MetricsRegistry* metrics) {
  Result<ParsedQuery> result = ParseQueryImpl(text, symbols);
  if (metrics != nullptr) {
    metrics->GetCounter(metric_names::kParserQueries)->Increment();
    if (!result.ok()) {
      metrics->GetCounter(metric_names::kParserErrors)->Increment();
    } else {
      const Dag& dag = *result->dag;
      for (std::int64_t id = 0; id < dag.num_nodes(); ++id) {
        metrics
            ->GetCounter(
                metric_names::kIrNodes,
                {{"kind", std::string(OpKindName(dag.node(id).kind))}})
            ->Increment();
      }
    }
  }
  return result;
}

}  // namespace fuseme
