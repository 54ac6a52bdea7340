// Seeded mutation fuzz over every reader of user-supplied bytes: the DSL
// parser, the four JSON readers (compiled plans, metrics snapshots,
// journal dumps, Chrome traces) and the matrix file loader.  Each case
// mutates a valid corpus generated here and requires the reader to answer
// with a Status or a value, never an abort.  Fixed seeds make every run
// identical, and the corpora stay small so each case runs well under a
// second.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "ir/parser.h"
#include "matrix/generators.h"
#include "matrix/matrix_io.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

enum class Reader {
  kQuery,
  kPlanJson,
  kMetricsJson,
  kJournalJson,
  kChromeTrace,
  kMatrixFile,
};
constexpr Reader kAllReaders[] = {
    Reader::kQuery,       Reader::kPlanJson,    Reader::kMetricsJson,
    Reader::kJournalJson, Reader::kChromeTrace, Reader::kMatrixFile};

enum class Mutation {
  kTruncate,         // every strict prefix
  kOverwrite,        // one random byte replaced by a random value
  kSplice,           // a prefix of the corpus + a suffix of any corpus
  kDeepNesting,      // 100,000 levels of brackets or operators
  kNumericExtremes,  // int64/double extremes in numeric fields
};

constexpr int kOverwrites = 800;
constexpr int kSplices = 300;
constexpr int kDeep = 100000;
constexpr std::int64_t kM = 26, kN = 20, kK = 6, kBlock = 8, kXnnz = 104;

const char* const kQueryText = "U * (t(V) %*% X) / (t(V) %*% V %*% U + 1e-9)";

std::map<std::string, MatrixShape> QuerySymbols() {
  return {{"X", {kM, kN, kXnnz}}, {"V", {kM, kK, -1}}, {"U", {kK, kN, -1}}};
}

/// One per process: ctest runs the cases of this binary concurrently.
std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/reader_fuzz_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The artifacts of one compiled, traced and journaled GNMF run.
struct RunArtifacts {
  std::string plan, metrics, journal, trace;
};

const RunArtifacts& Artifacts() {
  static const RunArtifacts* const artifacts = [] {
    GnmfQuery q = BuildGnmf(kM, kN, kK, kXnnz);
    std::map<NodeId, BlockedMatrix> inputs;
    inputs[q.X] = BlockedMatrix::FromSparse(
        RandomSparse(kM, kN, 0.2, /*seed=*/51, 1.0, 5.0), kBlock);
    inputs[q.V] = BlockedMatrix::FromDense(RandomDense(kM, kK, 52), kBlock);
    inputs[q.U] = BlockedMatrix::FromDense(RandomDense(kK, kN, 53), kBlock);
    MetricsRegistry registry;
    Tracer tracer;
    EngineOptions options;
    options.cluster.num_nodes = 2;
    options.cluster.tasks_per_node = 3;
    options.cluster.block_size = kBlock;
    options.metrics = &registry;
    options.tracer = &tracer;
    options.observability.journal_capacity = 256;
    const Engine engine = MakeEngine(options);
    Result<CompiledPlan> plan = engine.Compile(q.dag);
    FUSEME_CHECK(plan.ok()) << plan.status().ToString();
    FUSEME_CHECK(engine.Execute(*plan, inputs).ok());
    return new RunArtifacts{plan->ToJson(), registry.Snapshot().ToJson(),
                            engine.journal()->DumpJson(),
                            tracer.ToChromeJson()};
  }();
  return *artifacts;
}

/// A saved 20 x 12 matrix (block size 4) holding dense, sparse and zero
/// tiles.
std::string MatrixFileBytes() {
  BlockedMatrix m = RandomDenseBlocked(20, 12, 4, /*seed=*/61);
  for (std::int64_t bi = 0; bi < m.grid_rows(); ++bi) {
    for (std::int64_t bj = 0; bj < m.grid_cols(); ++bj) {
      const std::int64_t tr = m.TileRows(bi), tc = m.TileCols(bj);
      if ((bi + bj) % 3 == 1) {
        m.set_block(bi, bj, Block::FromSparse(RandomSparse(
                                tr, tc, 0.3, /*seed=*/70 + bi * 7 + bj)));
      } else if ((bi + bj) % 3 == 2) {
        m.set_block(bi, bj, Block::Zero(tr, tc));
      }
    }
  }
  const std::string path = TempPath("corpus.fmem");
  FUSEME_CHECK(SaveMatrix(m, path).ok());
  std::string bytes = ReadBytes(path);
  std::remove(path.c_str());
  return bytes;
}

const std::string& Corpus(Reader reader) {
  static const std::map<Reader, std::string>* const corpora = [] {
    const RunArtifacts& a = Artifacts();
    return new std::map<Reader, std::string>{
        {Reader::kQuery, kQueryText},
        {Reader::kPlanJson, a.plan},
        {Reader::kMetricsJson, a.metrics},
        {Reader::kJournalJson, a.journal},
        {Reader::kChromeTrace, a.trace},
        {Reader::kMatrixFile, MatrixFileBytes()}};
  }();
  return corpora->at(reader);
}

/// Runs `reader` over `bytes`; the value, when there is one, is dropped.
Status Read(Reader reader, const std::string& bytes,
            const std::map<std::string, MatrixShape>& symbols =
                QuerySymbols()) {
  switch (reader) {
    case Reader::kQuery:
      return ParseQuery(bytes, symbols).status();
    case Reader::kPlanJson:
      return CompiledPlan::FromJson(bytes).status();
    case Reader::kMetricsJson:
      return ParseMetricsJson(bytes).status();
    case Reader::kJournalJson:
      return ParseJournalJson(bytes).status();
    case Reader::kChromeTrace:
      return ParseChromeTrace(bytes).status();
    case Reader::kMatrixFile: {
      const std::string path = TempPath("mutant.fmem");
      WriteBytes(path, bytes);
      Status status = LoadMatrix(path).status();
      std::remove(path.c_str());
      return status;
    }
  }
  return Status::Internal("unknown reader");
}

/// Start offsets of the numeric tokens in a text corpus.
std::vector<std::size_t> NumberOffsets(const std::string& text) {
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool digit = std::isdigit(static_cast<unsigned char>(text[i]));
    const bool prev_word =
        i > 0 && (std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                  text[i - 1] == '.' || text[i - 1] == '_' ||
                  text[i - 1] == '-');
    if (digit && !prev_word) offsets.push_back(i);
  }
  return offsets;
}

/// Replaces the numeric token starting at `at` with `value`.
std::string ReplaceNumber(const std::string& text, std::size_t at,
                          const std::string& value) {
  std::size_t end = at;
  while (end < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[end])) ||
          text[end] == '.' || text[end] == 'e' || text[end] == 'E' ||
          text[end] == '+' || text[end] == '-')) {
    ++end;
  }
  return text.substr(0, at) + value + text.substr(end);
}

constexpr std::int64_t kIntExtremes[] = {
    std::numeric_limits<std::int64_t>::max(),
    std::numeric_limits<std::int64_t>::min(),
    -1,
    0,
    std::int64_t{1} << 31,
    std::int64_t{1} << 40,
};
const char* const kTextExtremes[] = {
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-1",                  "1e308",                "-1e308",
    "1e999",               "4.9e-324",             "0.0",
};

/// The deep inputs every reader of `reader`'s kind must reject.
std::vector<std::string> DeepInputs(Reader reader) {
  if (reader == Reader::kQuery) {
    std::string power = "X";
    for (int i = 0; i < kDeep; ++i) power += "^X";
    return {std::string(kDeep, '(') + "X" + std::string(kDeep, ')'),
            std::string(kDeep, '-') + "X", power,
            [] {
              std::string calls;
              for (int i = 0; i < kDeep; ++i) calls += "t(";
              return calls + "X" + std::string(kDeep, ')');
            }()};
  }
  // An ignored key whose value nests kDeep arrays or objects, spliced in
  // as the corpus's first member, and the arrays alone.
  const std::string& corpus = Corpus(reader);
  const std::string arrays = std::string(kDeep, '[') + std::string(kDeep, ']');
  std::string objects;
  for (int i = 0; i < kDeep; ++i) objects += "{\"k\": ";
  return {"{\"fuzz_deep\": " + arrays + ", " + corpus.substr(1),
          "{\"fuzz_deep\": " + objects + "0" + std::string(kDeep, '}') +
              ", " + corpus.substr(1),
          arrays};
}

/// Calls `visit` on every mutant of `reader`'s corpus under `mutation`.
void ForEachMutant(Reader reader, Mutation mutation,
                   const std::function<void(const std::string&)>& visit) {
  const std::string& corpus = Corpus(reader);
  std::mt19937_64 rng(0x5eed0000u + static_cast<unsigned>(reader) * 16u +
                      static_cast<unsigned>(mutation));
  switch (mutation) {
    case Mutation::kTruncate:
      for (std::size_t n = 0; n < corpus.size(); ++n) {
        visit(corpus.substr(0, n));
      }
      return;
    case Mutation::kOverwrite:
      for (int i = 0; i < kOverwrites; ++i) {
        // A matrix file's structure lives in its header and first blocks.
        const std::size_t span = reader == Reader::kMatrixFile
                                     ? std::min<std::size_t>(corpus.size(), 200)
                                     : corpus.size();
        std::string mutant = corpus;
        mutant[rng() % span] = static_cast<char>(rng() % 256);
        visit(mutant);
      }
      return;
    case Mutation::kSplice:
      for (int i = 0; i < kSplices; ++i) {
        const std::string& other =
            Corpus(kAllReaders[rng() % std::size(kAllReaders)]);
        const std::size_t cut = rng() % (corpus.size() + 1);
        visit(corpus.substr(0, cut) + other.substr(rng() % (other.size() + 1)));
      }
      return;
    case Mutation::kDeepNesting:
      for (const std::string& deep : DeepInputs(reader)) visit(deep);
      return;
    case Mutation::kNumericExtremes:
      if (reader == Reader::kMatrixFile) {
        // Every int64 field of the header and the first blocks, at every
        // byte offset, so misaligned overlaps are covered too.
        for (std::size_t at = 4; at + 8 <= corpus.size() && at < 200; ++at) {
          for (std::int64_t value : kIntExtremes) {
            std::string mutant = corpus;
            std::memcpy(mutant.data() + at, &value, sizeof(value));
            visit(mutant);
          }
        }
        return;
      }
      for (std::size_t at : NumberOffsets(corpus)) {
        for (const char* value : kTextExtremes) {
          visit(ReplaceNumber(corpus, at, value));
        }
      }
      return;
  }
}

struct FuzzCase {
  Reader reader;
  Mutation mutation;
};

class ReaderFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ReaderFuzz, ReturnsStatusNeverAborts) {
  const auto [reader, mutation] = GetParam();
  const std::string& corpus = Corpus(reader);
  ASSERT_TRUE(Read(reader, corpus).ok()) << Read(reader, corpus);

  std::size_t trimmed = corpus.size();
  while (trimmed > 0 && std::isspace(static_cast<unsigned char>(
                            corpus[trimmed - 1]))) {
    --trimmed;
  }
  int mutants = 0;
  int rejected = 0;
  ForEachMutant(reader, mutation, [&](const std::string& mutant) {
    const Status status = Read(reader, mutant);
    ++mutants;
    if (status.ok()) return;
    ++rejected;
    EXPECT_FALSE(status.message().empty()) << "mutant " << mutants;
    if (mutation == Mutation::kDeepNesting) {
      EXPECT_TRUE(status.IsInvalidArgument()) << status;
    }
  });
  EXPECT_GT(mutants, 0);
  if (mutation == Mutation::kDeepNesting) {
    EXPECT_EQ(rejected, mutants);
  }
  // Apart from the DSL, a strict prefix of a structured input is never
  // complete.
  if (mutation == Mutation::kTruncate && reader != Reader::kQuery) {
    EXPECT_GE(rejected, static_cast<int>(trimmed));
  }
}

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  static const char* const kReaders[] = {"Query",       "PlanJson",
                                         "MetricsJson", "JournalJson",
                                         "ChromeTrace", "MatrixFile"};
  static const char* const kMutations[] = {"Truncate", "Overwrite", "Splice",
                                           "DeepNesting", "NumericExtremes"};
  return std::string(kReaders[static_cast<int>(info.param.reader)]) + "_" +
         kMutations[static_cast<int>(info.param.mutation)];
}

std::vector<FuzzCase> AllCases() {
  std::vector<FuzzCase> cases;
  for (Reader reader : kAllReaders) {
    for (Mutation mutation :
         {Mutation::kTruncate, Mutation::kOverwrite, Mutation::kSplice,
          Mutation::kDeepNesting, Mutation::kNumericExtremes}) {
      // A matrix file has no nesting; its huge-header case is below.
      if (reader == Reader::kMatrixFile && mutation == Mutation::kDeepNesting) {
        continue;
      }
      cases.push_back({reader, mutation});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Readers, ReaderFuzz, ::testing::ValuesIn(AllCases()),
                         CaseName);

TEST(ReaderFuzzTest, MatrixHeaderWithHugeRowsIsInvalidArgument) {
  // rows sits at byte 8, after the magic and the version.
  std::string bytes = Corpus(Reader::kMatrixFile);
  for (std::int64_t rows : {std::int64_t{1} << 40, std::int64_t{1} << 62,
                            std::numeric_limits<std::int64_t>::max()}) {
    std::memcpy(bytes.data() + 8, &rows, sizeof(rows));
    const Status status = Read(Reader::kMatrixFile, bytes);
    EXPECT_TRUE(status.IsInvalidArgument()) << rows << ": " << status;
  }
}

TEST(ReaderFuzzTest, QuerySymbolExtremesReturnStatus) {
  for (const char* name : {"X", "U", "V"}) {
    for (std::int64_t value : kIntExtremes) {
      for (std::int64_t MatrixShape::*field :
           {&MatrixShape::rows, &MatrixShape::cols, &MatrixShape::nnz}) {
        std::map<std::string, MatrixShape> symbols = QuerySymbols();
        symbols[name].*field = value;
        const Status status = Read(Reader::kQuery, kQueryText, symbols);
        if (!status.ok()) {
          EXPECT_TRUE(status.IsInvalidArgument()) << status;
        }
      }
    }
  }
  // A symbol cannot hold more non-zeros than cells.
  std::map<std::string, MatrixShape> symbols = QuerySymbols();
  symbols["X"].nnz = kM * kN + 1;
  EXPECT_TRUE(Read(Reader::kQuery, kQueryText, symbols).IsInvalidArgument());
  symbols["X"].nnz = kM * kN;
  EXPECT_TRUE(Read(Reader::kQuery, kQueryText, symbols).ok());
}

}  // namespace
}  // namespace fuseme
