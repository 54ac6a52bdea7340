// HTTP exporter: endpoint routing over live sources, and the end-to-end
// acceptance criterion — GET /metrics while an engine run is in flight
// returns a valid Prometheus exposition, and /flightz is well-formed
// JSON strictly ordered by sequence number.

#include "telemetry/http_exporter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/http_server.h"
#include "compile_execute.h"
#include "engine/engine.h"
#include "matrix/generators.h"
#include "telemetry/event_journal.h"
#include "telemetry/event_names.h"
#include "telemetry/metrics.h"
#include "workloads/queries.h"

namespace fuseme {
namespace {

class HttpExporterEndpoints : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.GetCounter("fuseme_test_events_total")->Add(3);
    journal_ = std::make_unique<EventJournal>(/*capacity=*/32);
    journal_->Emit(LogLevel::kInfo, event_names::kRunStart);
    journal_->Emit(LogLevel::kInfo, event_names::kRunFinish);
    exporter_ = std::make_unique<HttpExporter>(
        HttpExporter::Options{.port = 0}, &registry_, journal_.get());
    const Status started = exporter_->Start();
    ASSERT_TRUE(started.ok()) << started;
    ASSERT_GT(exporter_->port(), 0);
  }

  std::string Get(const std::string& path) {
    Result<std::string> body = HttpGet(exporter_->port(), path);
    EXPECT_TRUE(body.ok()) << path << ": " << body.status();
    return body.ok() ? *body : "";
  }

  MetricsRegistry registry_;
  std::unique_ptr<EventJournal> journal_;
  std::unique_ptr<HttpExporter> exporter_;
};

TEST_F(HttpExporterEndpoints, Healthz) { EXPECT_EQ(Get("/healthz"), "ok\n"); }

TEST_F(HttpExporterEndpoints, MetricsIsValidPrometheus) {
  const std::string body = Get("/metrics");
  EXPECT_NE(body.find("fuseme_test_events_total"), std::string::npos);
  const Status valid = ValidatePrometheusText(body);
  EXPECT_TRUE(valid.ok()) << valid;
}

TEST_F(HttpExporterEndpoints, VarzRoundTripsThroughJsonParser) {
  Result<MetricsSnapshot> snapshot = ParseMetricsJson(Get("/varz"));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(*snapshot, registry_.Snapshot());
}

TEST_F(HttpExporterEndpoints, FlightzIsOrderedJson) {
  Result<std::vector<JournalEvent>> events =
      ParseJournalJson(Get("/flightz"));
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_LT((*events)[0].seq, (*events)[1].seq);
  EXPECT_EQ((*events)[0].id, event_names::kRunStart);
}

TEST_F(HttpExporterEndpoints, MetricsScrapeTracksLiveCounterValues) {
  // Each scrape renders the registry as it is now: successive scrapes
  // are the counter's time series.
  EXPECT_NE(Get("/metrics").find("fuseme_test_events_total 3\n"),
            std::string::npos);
  registry_.GetCounter("fuseme_test_events_total")->Add(4);
  EXPECT_NE(Get("/metrics").find("fuseme_test_events_total 7\n"),
            std::string::npos);
}

TEST_F(HttpExporterEndpoints, UnknownPathIs404WithEndpointList) {
  Result<std::string> body = HttpGet(exporter_->port(), "/nope");
  ASSERT_FALSE(body.ok());
  EXPECT_NE(body.status().message().find("404"), std::string::npos);
}

TEST(HttpExporterTest, AbsentSourcesYield404) {
  MetricsRegistry registry;
  HttpExporter exporter(HttpExporter::Options{.port = 0}, &registry,
                        /*journal=*/nullptr);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_TRUE(HttpGet(exporter.port(), "/metrics").ok());
  EXPECT_FALSE(HttpGet(exporter.port(), "/flightz").ok());
}

TEST(HttpExporterTest, EngineCopyKeepsThePlaneServing) {
  // Copies of an engine share its observability plane; the exporter stays
  // up until the last copy goes away.
  MetricsRegistry registry;
  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 8;
  options.metrics = &registry;
  options.observability.journal_capacity = 16;
  options.observability.exporter_port = 0;

  std::optional<Engine> original = MakeEngine(options);
  const Engine copy = *original;
  const int port = original->exporter_port();
  ASSERT_GT(port, 0);
  EXPECT_EQ(copy.exporter_port(), port);
  EXPECT_EQ(copy.journal(), original->journal());
  EXPECT_EQ(copy.observability(), original->observability());

  original.reset();
  Result<std::string> health = HttpGet(port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, "ok\n");
  EXPECT_TRUE(HttpGet(port, "/flightz").ok());
}

// Acceptance criterion: with the observability plane enabled through
// EngineOptions, curling /metrics in the middle of a run yields a valid
// Prometheus exposition, concurrently with the engine's own threads.
TEST(HttpExporterTest, ServesWhileEngineRuns) {
  MetricsRegistry registry;
  EngineOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.tasks_per_node = 3;
  options.cluster.block_size = 8;
  options.metrics = &registry;
  options.observability.journal_capacity = 256;
  options.observability.exporter_port = 0;  // ephemeral

  Result<Engine> engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const int port = engine->exporter_port();
  ASSERT_GT(port, 0);

  GnmfQuery q = BuildGnmf(26, 20, 6, /*x_nnz=*/104);
  std::map<NodeId, BlockedMatrix> inputs;
  inputs[q.X] = BlockedMatrix::FromSparse(
      RandomSparse(26, 20, 0.2, /*seed=*/51, 1.0, 5.0), 8);
  inputs[q.V] =
      BlockedMatrix::FromDense(RandomDense(26, 6, /*seed=*/52, 0.5, 1.5), 8);
  inputs[q.U] =
      BlockedMatrix::FromDense(RandomDense(6, 20, /*seed=*/53, 0.5, 1.5), 8);

  // Drive runs on a worker thread while this thread curls the exporter.
  std::atomic<bool> done{false};
  std::thread runner([&] {
    for (int i = 0; i < 3; ++i) {
      Engine::RunResult run = CompileAndExecute(*engine, q.dag, inputs);
      EXPECT_TRUE(run.report.ok()) << run.report.status;
    }
    done.store(true);
  });
  int fetched = 0;
  while (!done.load()) {
    Result<std::string> body = HttpGet(port, "/metrics");
    ASSERT_TRUE(body.ok()) << body.status();
    const Status valid = ValidatePrometheusText(*body);
    ASSERT_TRUE(valid.ok()) << valid;
    ++fetched;
  }
  runner.join();
  EXPECT_GT(fetched, 0);

  // After the runs: the flight recorder saw them, strictly seq-ordered.
  Result<std::string> flight = HttpGet(port, "/flightz");
  ASSERT_TRUE(flight.ok()) << flight.status();
  Result<std::vector<JournalEvent>> events = ParseJournalJson(*flight);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_FALSE(events->empty());
  for (std::size_t i = 1; i < events->size(); ++i) {
    ASSERT_LT((*events)[i - 1].seq, (*events)[i].seq);
  }
  bool saw_run_start = false;
  for (const JournalEvent& e : *events) {
    if (e.id == event_names::kRunStart) saw_run_start = true;
  }
  EXPECT_TRUE(saw_run_start);
}

}  // namespace
}  // namespace fuseme
