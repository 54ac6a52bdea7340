#include "telemetry/http_exporter.h"

namespace fuseme {

HttpExporter::HttpExporter(Options options, const MetricsRegistry* metrics,
                           const EventJournal* journal)
    : metrics_(metrics),
      journal_(journal),
      server_(HttpServer::Options{options.port, /*max_request_bytes=*/8192},
              [this](const HttpRequest& request) { return Handle(request); }) {
}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start() { return server_.Start(); }

void HttpExporter::Stop() { server_.Stop(); }

HttpResponse HttpExporter::Handle(const HttpRequest& request) const {
  HttpResponse response;
  if (request.path == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (request.path == "/metrics" && metrics_ != nullptr) {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = metrics_->Snapshot().ToPrometheusText();
    return response;
  }
  if (request.path == "/varz" && metrics_ != nullptr) {
    response.content_type = "application/json";
    response.body = metrics_->Snapshot().ToJson();
    return response;
  }
  if (request.path == "/flightz" && journal_ != nullptr) {
    response.content_type = "application/json";
    response.body = journal_->DumpJson();
    return response;
  }
  response.status = 404;
  response.body = "unknown endpoint " + request.path +
                  " (try /healthz /metrics /varz /flightz)\n";
  return response;
}

}  // namespace fuseme
