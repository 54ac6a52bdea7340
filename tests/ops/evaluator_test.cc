#include "ops/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "engine/reference.h"
#include "matrix/generators.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

constexpr std::int64_t kBs = 8;  // block size for all evaluator tests

/// Fetcher serving blocks out of in-memory BlockedMatrix bindings.
BlockFetcher MapFetcher(const std::map<NodeId, BlockedMatrix>* data) {
  return [data](NodeId id, std::int64_t bi,
                std::int64_t bj) -> Result<Block> {
    auto it = data->find(id);
    if (it == data->end()) {
      return Status::InvalidArgument("no binding for v" + std::to_string(id));
    }
    return it->second.block(bi, bj);
  };
}

DenseMatrix TileOf(const DenseMatrix& full, std::int64_t bi, std::int64_t bj,
                   std::int64_t bs) {
  const std::int64_t r0 = bi * bs, c0 = bj * bs;
  const std::int64_t rows = std::min(bs, full.rows() - r0);
  const std::int64_t cols = std::min(bs, full.cols() - c0);
  DenseMatrix out(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      out(i, j) = full(r0 + i, c0 + j);
    }
  }
  return out;
}

struct NmfFixture {
  NmfPattern q;
  std::map<NodeId, BlockedMatrix> blocked;
  std::map<NodeId, DenseMatrix> dense;
  DenseMatrix expected;

  explicit NmfFixture(std::int64_t i = 20, std::int64_t j = 18,
                      std::int64_t k = 6, double x_density = 0.1)
      : q(BuildNmfPattern(i, j, k,
                          static_cast<std::int64_t>(i * j * x_density))) {
    SparseMatrix x = RandomSparse(i, j, x_density, /*seed=*/1, 1.0, 2.0);
    DenseMatrix u = RandomDense(i, k, /*seed=*/2, 0.5, 1.5);
    DenseMatrix v = RandomDense(j, k, /*seed=*/3, 0.5, 1.5);
    dense[q.X] = x.ToDense();
    dense[q.U] = u;
    dense[q.V] = v;
    blocked[q.X] = BlockedMatrix::FromSparse(x, kBs);
    blocked[q.U] = BlockedMatrix::FromDense(u, kBs);
    blocked[q.V] = BlockedMatrix::FromDense(v, kBs);
    auto ref = ReferenceEval(q.dag, q.mul, dense);
    FUSEME_CHECK(ref.ok());
    expected = *ref;
  }

  PartialPlan Plan() const {
    return PartialPlan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  }
};

TEST(KernelEvaluatorTest, RootBlocksMatchReference) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, MapFetcher(&f.blocked));
  const NodeGrid grid = eval.Grid(f.q.mul);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      auto block = eval.Eval(f.q.mul, bi, bj);
      ASSERT_TRUE(block.ok()) << block.status();
      DenseMatrix expected = TileOf(f.expected, bi, bj, kBs);
      EXPECT_LE(DenseMatrix::MaxAbsDiff(block->ToDense(), expected), 1e-9)
          << "block " << bi << "," << bj;
    }
  }
  EXPECT_GT(eval.flops(), 0);
}

TEST(KernelEvaluatorTest, SparseDriverPathMatchesBlockPath) {
  NmfFixture f(24, 16, 5, /*x_density=*/0.05);
  PartialPlan plan = f.Plan();
  SparseDriver driver = FindSparseDriver(plan, f.q.mm);
  ASSERT_TRUE(driver.found());

  KernelEvaluator with_driver(&plan, kBs, MapFetcher(&f.blocked));
  with_driver.SetSparseDriver(driver);
  KernelEvaluator without(&plan, kBs, MapFetcher(&f.blocked));

  const NodeGrid grid = with_driver.Grid(f.q.mul);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      auto a = with_driver.Eval(f.q.mul, bi, bj);
      auto b = without.Eval(f.q.mul, bi, bj);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_LE(DenseMatrix::MaxAbsDiff(a->ToDense(), b->ToDense()), 1e-9);
    }
  }
  // The masked path does far less work than the dense evaluation.
  EXPECT_LT(with_driver.flops(), without.flops() / 2);
}

TEST(KernelEvaluatorTest, KRestrictedPartialsSumToFull) {
  NmfFixture f(16, 16, 20, /*x_density=*/1.0);  // K spans 3 blocks
  PartialPlan plan = f.Plan();

  KernelEvaluator full(&plan, kBs, MapFetcher(&f.blocked));
  auto full_mm = full.Eval(f.q.mm, 0, 0);
  ASSERT_TRUE(full_mm.ok());

  // Partial evaluations over k-slices [0,1), [1,2), [2,3).
  DenseMatrix sum(full_mm->rows(), full_mm->cols());
  for (std::int64_t r = 0; r < 3; ++r) {
    KernelEvaluator partial(&plan, kBs, MapFetcher(&f.blocked));
    partial.RestrictK(f.q.mm, r, r + 1);
    auto block = partial.Eval(f.q.mm, 0, 0);
    ASSERT_TRUE(block.ok());
    DenseMatrix d = block->ToDense();
    for (std::int64_t i = 0; i < sum.size(); ++i) {
      sum.data()[i] += d.data()[i];
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(sum, full_mm->ToDense()), 1e-9);
}

TEST(KernelEvaluatorTest, InjectedValueShortCircuits) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, MapFetcher(&f.blocked));
  // Inject zeros for the matmul: log(0 + eps) * X should result.
  const NodeGrid grid = eval.Grid(f.q.mm);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      eval.Inject(f.q.mm, bi, bj,
                  Block::Zero(grid.TileRows(bi), grid.TileCols(bj)));
    }
  }
  auto block = eval.Eval(f.q.mul, 0, 0);
  ASSERT_TRUE(block.ok());
  // Expected: X * log(eps) at X's non-zeros within the tile.
  DenseMatrix x_tile = TileOf(f.dense[f.q.X], 0, 0, kBs);
  for (std::int64_t i = 0; i < x_tile.rows(); ++i) {
    for (std::int64_t j = 0; j < x_tile.cols(); ++j) {
      EXPECT_NEAR(block->ToDense()(i, j), x_tile(i, j) * std::log(1e-8),
                  1e-9);
    }
  }
}

TEST(KernelEvaluatorTest, EvalMaskedNodeRestrictedPartials) {
  NmfFixture f(16, 16, 20, /*x_density=*/0.08);
  PartialPlan plan = f.Plan();
  SparseDriver driver = FindSparseDriver(plan, f.q.mm);
  ASSERT_TRUE(driver.found());

  // Masked partials over k-slices must sum to the masked full product.
  KernelEvaluator full(&plan, kBs, MapFetcher(&f.blocked));
  auto mm_full = full.Eval(f.q.mm, 0, 1);
  ASSERT_TRUE(mm_full.ok());

  DenseMatrix summed(mm_full->rows(), mm_full->cols());
  for (std::int64_t r = 0; r < 3; ++r) {
    KernelEvaluator partial(&plan, kBs, MapFetcher(&f.blocked));
    partial.RestrictK(f.q.mm, r, r + 1);
    auto masked = partial.EvalMaskedNode(f.q.mm, driver.sparse_input, 0, 1);
    ASSERT_TRUE(masked.ok());
    DenseMatrix d = masked->ToDense();
    for (std::int64_t i = 0; i < summed.size(); ++i) {
      summed.data()[i] += d.data()[i];
    }
  }
  // At mask non-zeros the sum equals the full product.
  const BlockedMatrix& xb = f.blocked[f.q.X];
  const Block& mask = xb.block(0, 1);
  DenseMatrix full_d = mm_full->ToDense();
  for (std::int64_t i = 0; i < mask.rows(); ++i) {
    for (std::int64_t j = 0; j < mask.cols(); ++j) {
      if (mask.At(i, j) != 0.0) {
        EXPECT_NEAR(summed(i, j), full_d(i, j), 1e-9);
      } else {
        EXPECT_EQ(summed(i, j), 0.0);
      }
    }
  }
}

TEST(KernelEvaluatorTest, FetcherErrorsPropagate) {
  NmfFixture f;
  PartialPlan plan = f.Plan();
  KernelEvaluator eval(&plan, kBs, [](NodeId, std::int64_t, std::int64_t)
                           -> Result<Block> {
    return Status::OutOfMemory("fetch failed");
  });
  auto result = eval.Eval(f.q.mul, 0, 0);
  EXPECT_TRUE(result.status().IsOutOfMemory());
}

TEST(KernelEvaluatorTest, MetaInputsProduceMetaOutputs) {
  NmfPattern q = BuildNmfPattern(32, 32, 8, 100);
  PartialPlan plan(&q.dag, {q.vT, q.mm, q.add, q.log, q.mul}, q.mul);
  std::map<NodeId, BlockedMatrix> data;
  data[q.X] = BlockedMatrix::MakeMeta(32, 32, 100, kBs);
  data[q.U] = BlockedMatrix::MakeMeta(32, 8, 32 * 8, kBs);
  data[q.V] = BlockedMatrix::MakeMeta(32, 8, 32 * 8, kBs);
  KernelEvaluator eval(&plan, kBs, MapFetcher(&data));
  auto block = eval.Eval(q.mul, 0, 0);
  ASSERT_TRUE(block.ok()) << block.status();
  EXPECT_TRUE(block->is_meta());
  EXPECT_GT(eval.flops(), 0);
}

TEST(KernelEvaluatorTest, PcaRowFusionPattern) {
  // (X×S)ᵀ×X with everything fused: exercises transpose + nested matmul.
  PcaPattern q = BuildPcaPattern(20, 12);
  DenseMatrix x = RandomDense(20, 12, /*seed=*/4, 0.1, 1.0);
  DenseMatrix s = RandomDense(12, 1, /*seed=*/5, 0.1, 1.0);
  std::map<NodeId, DenseMatrix> dense = {{q.X, x}, {q.S, s}};
  std::map<NodeId, BlockedMatrix> blocked;
  blocked[q.X] = BlockedMatrix::FromDense(x, kBs);
  blocked[q.S] = BlockedMatrix::FromDense(s, kBs);
  auto expected = ReferenceEval(q.dag, q.mm2, dense);
  ASSERT_TRUE(expected.ok());

  PartialPlan plan(&q.dag, {q.mm1, q.t, q.mm2}, q.mm2);
  KernelEvaluator eval(&plan, kBs, MapFetcher(&blocked));
  const NodeGrid grid = eval.Grid(q.mm2);
  DenseMatrix got(1, 12);
  for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
    auto block = eval.Eval(q.mm2, 0, bj);
    ASSERT_TRUE(block.ok());
    DenseMatrix tile = block->ToDense();
    for (std::int64_t j = 0; j < tile.cols(); ++j) {
      got(0, bj * kBs + j) = tile(0, j);
    }
  }
  EXPECT_LE(DenseMatrix::MaxAbsDiff(got, *expected), 1e-9);
}

// --- Golden tests of the lowered masked program. ---

using Key = KernelEvaluator::Key;

/// Element (gi, gj) of `node`, evaluated one element at a time in global
/// coordinates: the operation order, FLOP charges and first block touches
/// the masked program must reproduce exactly.
struct ElementOracle {
  const PartialPlan* plan = nullptr;
  const std::map<NodeId, BlockedMatrix>* data = nullptr;
  std::map<Key, Block> injected;
  NodeId restricted = kInvalidNode;
  std::int64_t k_begin = 0, k_end = 0;
  std::int64_t flops = 0, gemm_flops = 0;
  std::vector<Key> touches;  // first touch of each (node, bi, bj)
  std::set<Key> seen;

  void Touch(NodeId id, std::int64_t bi, std::int64_t bj) {
    if (seen.insert({id, bi, bj}).second) touches.emplace_back(id, bi, bj);
  }

  double At(NodeId node, std::int64_t gi, std::int64_t gj) {
    const Dag& dag = plan->dag();
    const Node& n = dag.node(node);
    const std::int64_t bi = gi / kBs, bj = gj / kBs;
    if (!plan->Contains(node)) {
      if (n.kind == OpKind::kScalar) return n.scalar;
      Touch(node, bi, bj);
      return data->at(node).block(bi, bj).At(gi % kBs, gj % kBs);
    }
    if (auto it = injected.find({node, bi, bj}); it != injected.end()) {
      return it->second.At(gi % kBs, gj % kBs);
    }
    switch (n.kind) {
      case OpKind::kUnary: {
        const double x = At(n.inputs[0], gi, gj);
        flops += 1;
        return ApplyUnary(n.unary_fn, x);
      }
      case OpKind::kBinary: {
        const double x = At(n.inputs[0], gi, gj);
        const double y = At(n.inputs[1], gi, gj);
        flops += 1;
        return ApplyBinary(n.binary_fn, x, y);
      }
      case OpKind::kTranspose:
        return At(n.inputs[0], gj, gi);
      case OpKind::kMatMul: {
        std::int64_t gk0 = 0, gk1 = dag.node(n.inputs[0]).cols;
        if (node == restricted) {
          gk0 = k_begin * kBs;
          gk1 = std::min(gk1, k_end * kBs);
        }
        double acc = 0.0;
        for (std::int64_t gk = gk0; gk < gk1; ++gk) {
          const double a = At(n.inputs[0], gi, gk);
          acc += a * At(n.inputs[1], gk, gj);
        }
        flops += 2 * (gk1 - gk0);
        gemm_flops += 2 * (gk1 - gk0);
        return acc;
      }
      default:
        ADD_FAILURE() << "unexpected " << n.Label() << " under the mask";
        return 0.0;
    }
  }
};

/// One masked evaluation: X (sparse) masks a chain over a matmul `mm`.
struct MaskedCase {
  Dag dag;
  NodeId X = kInvalidNode, mm = kInvalidNode, root = kInvalidNode;
  std::vector<NodeId> members;
  std::map<NodeId, BlockedMatrix> data;
  bool phase1 = false;  // EvalMaskedNode(mm, X) instead of Eval(root)
  std::int64_t k_begin = -1, k_end = -1;  // RestrictK(mm, ...) when set
  bool inject = false;  // mm's blocks injected (R>1 phase 2)
};

void AddMask(MaskedCase* c, std::int64_t i, std::int64_t j) {
  const SparseMatrix x = RandomSparse(i, j, 0.15, /*seed=*/21, 1.0, 2.0);
  c->X = *c->dag.AddInput("X", i, j, x.nnz());
  c->data[c->X] = BlockedMatrix::FromSparse(x, kBs);
}

NodeId AddDense(MaskedCase* c, const char* name, std::int64_t rows,
                std::int64_t cols, std::uint64_t seed) {
  const NodeId id = *c->dag.AddInput(name, rows, cols);
  c->data[id] =
      BlockedMatrix::FromDense(RandomDense(rows, cols, seed, 0.5, 1.5), kBs);
  return id;
}

/// X * log(U·Vᵀ + ε) with the mask on the left or the right.
MaskedCase Nmf(bool mask_left, std::int64_t k = 16) {
  MaskedCase c;
  AddMask(&c, 20, 18);
  const NodeId u = AddDense(&c, "U", 20, k, 22);
  const NodeId v = AddDense(&c, "V", 18, k, 23);
  const NodeId vt = *c.dag.AddTranspose(v);
  c.mm = *c.dag.AddMatMul(u, vt);
  const NodeId add =
      *c.dag.AddBinary(BinaryFn::kAdd, c.mm, *c.dag.AddScalar(1e-8));
  const NodeId log = *c.dag.AddUnary(UnaryFn::kLog, add);
  c.root = mask_left ? *c.dag.AddBinary(BinaryFn::kMul, c.X, log)
                     : *c.dag.AddBinary(BinaryFn::kMul, log, c.X);
  c.members = {vt, c.mm, add, log, c.root};
  return c;
}

MaskedCase MaskLeft() { return Nmf(/*mask_left=*/true); }
MaskedCase MaskRight() { return Nmf(/*mask_left=*/false); }
MaskedCase RaggedK() { return Nmf(true, /*k=*/13); }

MaskedCase SparseAndZeroUBlocks() {
  MaskedCase c = Nmf(true);
  BlockedMatrix& u = c.data[c.dag.node(c.mm).inputs[0]];
  u.set_block(0, 0, Block::FromSparse(
                        RandomSparse(8, 8, 0.3, /*seed=*/24, 0.5, 1.5)));
  u.set_block(1, 1, Block::Zero(8, 8));
  u.set_block(2, 0, Block::FromSparse(
                        RandomSparse(4, 8, 0.25, /*seed=*/25, 0.5, 1.5)));
  return c;
}

MaskedCase RestrictKPartials() {
  MaskedCase c = Nmf(true, /*k=*/20);  // k-blocks of 8, 8, 4
  c.phase1 = true;
  c.k_begin = 1;
  c.k_end = 3;
  return c;
}

MaskedCase InjectedMatMul() {
  MaskedCase c = Nmf(true);
  c.inject = true;
  return c;
}

/// KL-style X * log(X / U·Vᵀ): the mask is read again inside the chain.
MaskedCase MaskReadInChain() {
  MaskedCase c;
  AddMask(&c, 20, 18);
  const NodeId u = AddDense(&c, "U", 20, 16, 22);
  const NodeId v = AddDense(&c, "V", 18, 16, 23);
  const NodeId vt = *c.dag.AddTranspose(v);
  c.mm = *c.dag.AddMatMul(u, vt);
  const NodeId div = *c.dag.AddBinary(BinaryFn::kDiv, c.X, c.mm);
  const NodeId log = *c.dag.AddUnary(UnaryFn::kLog, div);
  c.root = *c.dag.AddBinary(BinaryFn::kMul, c.X, log);
  c.members = {vt, c.mm, div, log, c.root};
  return c;
}

/// X * ((U*2)·Vᵀ): an in-plan chain under the dot's lhs.
MaskedCase InPlanOperandChain() {
  MaskedCase c;
  AddMask(&c, 20, 18);
  const NodeId u = AddDense(&c, "U", 20, 13, 22);
  const NodeId v = AddDense(&c, "V", 18, 13, 23);
  const NodeId u2 = *c.dag.AddBinary(BinaryFn::kMul, u, *c.dag.AddScalar(2));
  const NodeId vt = *c.dag.AddTranspose(v);
  c.mm = *c.dag.AddMatMul(u2, vt);
  c.root = *c.dag.AddBinary(BinaryFn::kMul, c.X, c.mm);
  c.members = {u2, vt, c.mm, c.root};
  return c;
}

/// X * sqrt(Aᵀ·B): a transposed-external lhs and a plain rhs.
MaskedCase TransposedLhs() {
  MaskedCase c;
  AddMask(&c, 20, 18);
  const NodeId a = AddDense(&c, "A", 13, 20, 26);
  const NodeId b = AddDense(&c, "B", 13, 18, 27);
  const NodeId at = *c.dag.AddTranspose(a);
  c.mm = *c.dag.AddMatMul(at, b);
  const NodeId sqrt = *c.dag.AddUnary(UnaryFn::kSqrt, c.mm);
  c.root = *c.dag.AddBinary(BinaryFn::kMul, c.X, sqrt);
  c.members = {at, c.mm, sqrt, c.root};
  return c;
}

struct NamedMaskedCase {
  const char* name;
  MaskedCase (*build)();
};

void PrintTo(const NamedMaskedCase& c, std::ostream* os) { *os << c.name; }

const NamedMaskedCase kMaskedCases[] = {
    {"MaskLeft", MaskLeft},
    {"MaskRight", MaskRight},
    {"SparseAndZeroUBlocks", SparseAndZeroUBlocks},
    {"RaggedK", RaggedK},
    {"RestrictKPartials", RestrictKPartials},
    {"InjectedMatMul", InjectedMatMul},
    {"MaskReadInChain", MaskReadInChain},
    {"InPlanOperandChain", InPlanOperandChain},
    {"TransposedLhs", TransposedLhs},
};

class MaskedProgramGoldenTest
    : public ::testing::TestWithParam<NamedMaskedCase> {};

TEST_P(MaskedProgramGoldenTest, BitwiseEqualToElementOracle) {
  MaskedCase c = GetParam().build();
  PartialPlan plan(&c.dag, c.members, c.root);
  const SparseDriver driver = FindSparseDriver(plan, c.mm);
  ASSERT_TRUE(driver.found());
  ASSERT_EQ(driver.mul_node, c.root);
  ASSERT_EQ(driver.sparse_input, c.X);
  const BlockedMatrix& x = c.data.at(c.X);
  for (std::int64_t bi = 0; bi < x.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < x.grid_cols(); ++bj) {
      ASSERT_NE(x.block(bi, bj).kind(), Block::Kind::kDense)
          << "mask tile " << bi << "," << bj << " must stay sparse";
    }
  }

  std::vector<Key> fetches;
  KernelEvaluator eval(
      &plan, kBs,
      [&](NodeId id, std::int64_t bi, std::int64_t bj) -> Result<Block> {
        fetches.emplace_back(id, bi, bj);
        return c.data.at(id).block(bi, bj);
      });
  eval.SetSparseDriver(driver);
  ElementOracle oracle;
  oracle.plan = &plan;
  oracle.data = &c.data;
  if (c.k_end >= 0) {
    eval.RestrictK(c.mm, c.k_begin, c.k_end);
    oracle.restricted = c.mm;
    oracle.k_begin = c.k_begin;
    oracle.k_end = c.k_end;
  }
  if (c.inject) {
    KernelEvaluator full(&plan, kBs, MapFetcher(&c.data));
    const NodeGrid grid = full.Grid(c.mm);
    for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
      for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
        auto block = full.Eval(c.mm, bi, bj);
        ASSERT_TRUE(block.ok()) << block.status();
        eval.Inject(c.mm, bi, bj, *block);
        oracle.injected[{c.mm, bi, bj}] = *block;
      }
    }
  }

  const Node& mul = c.dag.node(c.root);
  const bool mask_left = mul.inputs[0] == c.X;
  const NodeId value_node =
      c.phase1 ? c.mm : (mask_left ? mul.inputs[1] : mul.inputs[0]);
  std::int64_t mask_muls = 0;
  const NodeGrid grid = eval.Grid(c.root);
  for (std::int64_t bi = 0; bi < grid.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < grid.grid_cols(); ++bj) {
      Result<Block> got = c.phase1 ? eval.EvalMaskedNode(c.mm, c.X, bi, bj)
                                   : eval.Eval(c.root, bi, bj);
      ASSERT_TRUE(got.ok()) << got.status();

      oracle.Touch(c.X, bi, bj);
      DenseMatrix want(grid.TileRows(bi), grid.TileCols(bj));
      const Block& mask = x.block(bi, bj);
      if (mask.kind() == Block::Kind::kSparse) {
        mask.sparse().ForEach([&](std::int64_t i, std::int64_t j, double v) {
          const double value =
              oracle.At(value_node, bi * kBs + i, bj * kBs + j);
          const double out =
              c.phase1 ? value : (mask_left ? v * value : value * v);
          if (out != 0.0) want(i, j) = out;
        });
        if (!c.phase1) mask_muls += mask.nnz();
      }
      const DenseMatrix have = got->ToDense();
      ASSERT_EQ(have.rows(), want.rows());
      ASSERT_EQ(have.cols(), want.cols());
      EXPECT_EQ(std::memcmp(have.data(), want.data(),
                            sizeof(double) * static_cast<std::size_t>(
                                                 want.size())),
                0)
          << "block " << bi << "," << bj;
    }
  }
  EXPECT_EQ(eval.flops(), oracle.flops + mask_muls);
  EXPECT_EQ(eval.gemm_flops(), oracle.gemm_flops);
  if (!c.inject) {
    EXPECT_GT(eval.gemm_flops(), 0);
  }
  EXPECT_EQ(fetches, oracle.touches);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MaskedProgramGoldenTest, ::testing::ValuesIn(kMaskedCases),
    [](const ::testing::TestParamInfo<NamedMaskedCase>& info) {
      return std::string(info.param.name);
    });

TEST(KernelEvaluatorTest, MaskedProgramOnMetaOperandIsAStatus) {
  MaskedCase c = MaskLeft();
  const NodeId u = c.dag.node(c.mm).inputs[0];
  c.data[u] = BlockedMatrix::MakeMeta(20, 16, 20 * 16, kBs);
  PartialPlan plan(&c.dag, c.members, c.root);
  KernelEvaluator eval(&plan, kBs, MapFetcher(&c.data));
  eval.SetSparseDriver(FindSparseDriver(plan, c.mm));
  auto block = eval.Eval(c.root, 0, 0);
  ASSERT_FALSE(block.ok());
  EXPECT_EQ(block.status().code(), StatusCode::kInternal);
  EXPECT_NE(block.status().message().find("meta block"), std::string::npos);
}

}  // namespace
}  // namespace fuseme
