// JsonReader number parsing: malformed and out-of-range tokens come back
// as a non-OK Status through every reader built on it, never as an
// exception or undefined behaviour.

#include "common/json_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "compile_execute.h"
#include "engine/compiled_plan.h"
#include "engine/engine.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

/// Runs of number characters that are not numbers, or overflow a double.
constexpr const char* kMalformed[] = {"-",  "--1", "1-2",   "+",     ".",
                                      "1e", "1.e", "1e+-1", "1e999", "-1e999"};
/// Valid doubles that do not fit an int64.
constexpr const char* kIntOverflow[] = {"99999999999999999999",
                                        "-99999999999999999999", "1e30",
                                        "-1e30"};

/// `json` with the value that follows the first `key` replaced by `token`.
std::string WithValue(const std::string& json, const std::string& key,
                      const char* token) {
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return json;
  const std::size_t begin = at + key.size();
  std::string out = json;
  out.replace(begin, json.find_first_of(",}]", begin) - begin, token);
  return out;
}

TEST(JsonUtilTest, ReaderRejectsBadNumbers) {
  for (const char* token : kMalformed) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(JsonReader(token).ReadNumber().ok());
    EXPECT_FALSE(JsonReader(token).ReadInt().ok());
  }
  for (const char* token : kIntOverflow) {
    SCOPED_TRACE(token);
    EXPECT_TRUE(JsonReader(token).ReadNumber().ok());
    EXPECT_FALSE(JsonReader(token).ReadInt().ok());
  }
}

TEST(JsonUtilTest, ReaderKeepsValidNumbers) {
  EXPECT_EQ(*JsonReader("9223372036854775807").ReadInt(), INT64_MAX);
  EXPECT_EQ(*JsonReader("-9223372036854775808").ReadInt(), INT64_MIN);
  EXPECT_EQ(*JsonReader("-2.75").ReadInt(), -2);
  EXPECT_EQ(*JsonReader("1.5e3").ReadNumber(), 1500.0);
  // Underflow is not an error: subnormals and flush-to-zero both parse.
  EXPECT_EQ(*JsonReader("4.9406564584124654e-324").ReadNumber(),
            4.9406564584124654e-324);
  EXPECT_EQ(*JsonReader("1e-400").ReadNumber(), 0.0);
}

TEST(JsonUtilTest, CompiledPlanFromJsonRejectsBadNumbers) {
  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  EngineOptions options;
  options.cluster.block_size = 8;
  Result<CompiledPlan> compiled = MakeEngine(options).Compile(q.dag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const std::string json = compiled->ToJson();
  ASSERT_TRUE(CompiledPlan::FromJson(json).ok());

  auto with_value = [&json](const std::string& key, const char* token) {
    return WithValue(json, key, token);
  };
  for (const char* token : kMalformed) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(
        CompiledPlan::FromJson(with_value("\"block_size\":", token)).ok());
    EXPECT_FALSE(
        CompiledPlan::FromJson(with_value("\"net_bandwidth\":", token)).ok());
  }
  for (const char* token : kIntOverflow) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(
        CompiledPlan::FromJson(with_value("\"block_size\":", token)).ok());
  }
}

TEST(JsonUtilTest, ParseMetricsJsonRejectsBadNumbers) {
  auto sample = [](const char* kind, const char* token) {
    return std::string("{\"metrics\":[{\"name\":\"m\",\"kind\":\"") + kind +
           "\",\"labels\":{},\"value\":" + token + "}]}";
  };
  ASSERT_TRUE(ParseMetricsJson(sample("counter", "7")).ok());
  ASSERT_TRUE(ParseMetricsJson(sample("gauge", "0.5")).ok());
  for (const char* token : kMalformed) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(ParseMetricsJson(sample("counter", token)).ok());
    EXPECT_FALSE(ParseMetricsJson(sample("gauge", token)).ok());
  }
  for (const char* token : kIntOverflow) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(ParseMetricsJson(sample("counter", token)).ok());
  }
}

TEST(JsonUtilTest, ReadIntIsExactPast2To53) {
  // 2^53 + 1 has no double representation; a detour through strtod would
  // read it back as 2^53.
  EXPECT_EQ(*JsonReader("9007199254740993").ReadInt(), 9007199254740993LL);
  EXPECT_EQ(*JsonReader("9007199254740993").ReadNumber(), 9007199254740992.0);
  const std::string text = "[12, -7 ,0]";  // the reader keeps a reference
  JsonReader sequence(text);
  ASSERT_TRUE(sequence.Expect('[').ok());
  EXPECT_EQ(*sequence.ReadInt(), 12);
  ASSERT_TRUE(sequence.Expect(',').ok());
  EXPECT_EQ(*sequence.ReadInt(), -7);
  ASSERT_TRUE(sequence.Expect(',').ok());
  EXPECT_EQ(*sequence.ReadInt(), 0);
  ASSERT_TRUE(sequence.Expect(']').ok());
  EXPECT_TRUE(sequence.AtEnd());
}

TEST(JsonUtilTest, SkipValueRejectsBadNumbers) {
  // Ignored keys are skipped through the same number parser, so a bad
  // token under a key no reader knows is still an error.
  EXPECT_TRUE(JsonReader("{\"a\": [1, -2.5e3, \"x\"]}").SkipValue().ok());
  for (const char* token : kMalformed) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(JsonReader(token).SkipValue().ok());
    EXPECT_FALSE(
        JsonReader(std::string("{\"a\": [1, ") + token + "]}").SkipValue().ok());
    EXPECT_FALSE(
        ParseJournalJson(std::string("{\"emitted\": ") + token +
                         ", \"events\": []}")
            .ok());
  }
}

TEST(JsonUtilTest, ReaderRejectsTruncatedAndUnsupportedStrings) {
  for (const char* text :
       {"\"abc", "\"ab\\", "\"\\u00", "\"\\u00g1\"", "\"\\u00e9\"",
        "\"\\q\""}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(JsonReader(text).ReadString().ok());
  }
  EXPECT_FALSE(JsonReader("").SkipValue().ok());
  EXPECT_FALSE(JsonReader("nul").SkipValue().ok());
  EXPECT_FALSE(JsonReader("[1, 2").SkipValue().ok());
}

TEST(JsonUtilTest, JsonEscapeRoundTripsThroughReadString) {
  std::string raw = "plain \"quoted\" back\\slash\ttab\nnewline";
  for (char c = 1; c < 0x20; ++c) raw += c;
  const std::string json = "\"" + JsonEscape(raw) + "\"";
  JsonReader reader(json);
  Result<std::string> read = reader.ReadString();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, raw);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(JsonUtilTest, ParseJournalJsonRejectsBadNumbers) {
  EventJournal journal(/*capacity=*/8);
  journal.Emit(LogLevel::kInfo, event_names::kRunStart, {{"mode", "real"}});
  const std::string json = journal.DumpJson();
  ASSERT_TRUE(ParseJournalJson(json).ok());
  for (const char* key : {"\"seq\": ", "\"t_us\": "}) {
    SCOPED_TRACE(key);
    for (const char* token : kMalformed) {
      SCOPED_TRACE(token);
      EXPECT_FALSE(ParseJournalJson(WithValue(json, key, token)).ok());
    }
    for (const char* token : kIntOverflow) {
      SCOPED_TRACE(token);
      EXPECT_FALSE(ParseJournalJson(WithValue(json, key, token)).ok());
    }
  }
}

/// A one-span Chrome trace in the exporter's layout.
constexpr const char kTrace[] =
    "{\"traceEvents\": [{\"name\": \"stage\", \"cat\": \"engine\", "
    "\"ph\": \"X\", \"ts\": 5, \"dur\": 3, \"pid\": 1, \"tid\": 2}]}";

TEST(JsonUtilTest, ChromeTraceParserRejectsBadNumbers) {
  Result<std::vector<TraceSpan>> spans = ParseChromeTrace(kTrace);
  ASSERT_TRUE(spans.ok()) << spans.status();
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ((*spans)[0].begin_us, 5);
  EXPECT_EQ((*spans)[0].end_us, 8);
  EXPECT_EQ((*spans)[0].tid, 2);
  for (const char* key : {"\"ts\": ", "\"dur\": ", "\"pid\": ", "\"tid\": "}) {
    SCOPED_TRACE(key);
    for (const char* token : kMalformed) {
      SCOPED_TRACE(token);
      EXPECT_FALSE(ParseChromeTrace(WithValue(kTrace, key, token)).ok());
    }
  }
}

TEST(JsonUtilTest, ChromeTraceParserRejectsOutOfRangeTimes) {
  // Finite doubles whose integer conversion would overflow: the parser
  // refuses them instead of casting.
  for (const char* key : {"\"ts\": ", "\"dur\": "}) {
    SCOPED_TRACE(key);
    for (const char* token : {"1e19", "-1e19", "1e300", "9007199254740994"}) {
      SCOPED_TRACE(token);
      EXPECT_FALSE(ParseChromeTrace(WithValue(kTrace, key, token)).ok());
    }
  }
  for (const char* token : {"2147483648", "-2147483649", "1e300"}) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(ParseChromeTrace(WithValue(kTrace, "\"tid\": ", token)).ok());
  }
  EXPECT_TRUE(
      ParseChromeTrace(WithValue(kTrace, "\"ts\": ", "9007199254740992")).ok());
  EXPECT_TRUE(ParseChromeTrace(WithValue(kTrace, "\"tid\": ", "-1")).ok());
}

}  // namespace
}  // namespace fuseme
