#include "telemetry/observability.h"

namespace fuseme {

namespace {

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("observability options: " + what);
}

}  // namespace

Status ObservabilityOptions::Validate(bool have_metrics) const {
  if (journal_capacity < 0) {
    return Invalid("journal_capacity must be >= 0 (0 disables), got " +
                   std::to_string(journal_capacity));
  }
  if (exporter_port < -1 || exporter_port > 65535) {
    return Invalid("exporter_port must be in [-1, 65535], got " +
                   std::to_string(exporter_port));
  }
  if (exporter_port >= 0 && !have_metrics && journal_capacity == 0) {
    return Invalid(
        "the exporter needs at least one source (metrics or journal)");
  }
  if (crash_dump && journal_capacity == 0) {
    return Invalid("crash_dump requires journal_capacity > 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<ObservabilityPlane>> ObservabilityPlane::Start(
    const ObservabilityOptions& options, const MetricsRegistry* metrics,
    std::chrono::steady_clock::time_point epoch) {
  FUSEME_RETURN_IF_ERROR(options.Validate(metrics != nullptr));

  // Not make_unique: the constructor is private.
  std::unique_ptr<ObservabilityPlane> plane(new ObservabilityPlane());
  plane->options_ = options;

  if (options.journal_capacity > 0) {
    plane->journal_ =
        std::make_unique<EventJournal>(options.journal_capacity, epoch);
    if (options.crash_dump) {
      AttachJournalCrashDump(plane->journal_.get());
      plane->crash_dump_attached_ = true;
    }
  }
  if (options.exporter_port >= 0) {
    plane->exporter_ = std::make_unique<HttpExporter>(
        HttpExporter::Options{options.exporter_port}, metrics,
        plane->journal_.get());
    FUSEME_RETURN_IF_ERROR(plane->exporter_->Start());
    // ~ObservabilityPlane handles partial teardown if we returned above.
  }
  return plane;
}

ObservabilityPlane::~ObservabilityPlane() {
  // Exporter first so no request can touch the journal as it goes away.
  if (exporter_ != nullptr) exporter_->Stop();
  if (crash_dump_attached_) AttachJournalCrashDump(nullptr);
}

int ObservabilityPlane::exporter_port() const {
  return exporter_ != nullptr ? exporter_->port() : -1;
}

}  // namespace fuseme
