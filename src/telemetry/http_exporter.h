// Embedded HTTP exporter: the live-observability endpoints (DESIGN.md
// section 17).
//
// Routes, all GET, all computed from a point-in-time snapshot so they
// serve concurrently with a running engine:
//
//   /healthz  200 "ok" while the server is up (liveness probe)
//   /metrics  Prometheus text exposition (MetricsSnapshot::ToPrometheusText)
//   /varz     metrics snapshot as JSON (MetricsSnapshot::ToJson)
//   /flightz  flight-recorder dump (EventJournal::DumpJson)
//
// Sources are nullable: an endpoint whose source is absent returns 404,
// so the exporter composes with whatever subset of the plane is enabled.

#ifndef FUSEME_TELEMETRY_HTTP_EXPORTER_H_
#define FUSEME_TELEMETRY_HTTP_EXPORTER_H_

#include <memory>

#include "common/http_server.h"
#include "common/status.h"
#include "telemetry/event_journal.h"
#include "telemetry/metrics.h"

namespace fuseme {

/// HTTP server wired to the telemetry sources.  Thread-safe; sources
/// must outlive it.
class HttpExporter {
 public:
  struct Options {
    /// TCP port (loopback only); 0 = ephemeral, read port() after Start.
    int port = 0;
  };

  HttpExporter(Options options, const MetricsRegistry* metrics,
               const EventJournal* journal);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  Status Start();
  void Stop();

  /// Bound port after a successful Start().
  [[nodiscard]] int port() const { return server_.port(); }

  /// The routing logic, exposed for endpoint unit tests without sockets.
  [[nodiscard]] HttpResponse Handle(const HttpRequest& request) const;

 private:
  const MetricsRegistry* metrics_;
  const EventJournal* journal_;
  HttpServer server_;
};

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_HTTP_EXPORTER_H_
