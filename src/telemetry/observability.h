// Live observability plane: composition root for the flight recorder
// and the embedded HTTP exporter (DESIGN.md section 17).
//
// EngineOptions carries an ObservabilityOptions; Engine::Create calls
// ObservabilityPlane::Start with it, and the engine emits into the
// plane's journal from its driver thread.  Everything defaults to off —
// a run with the default options builds no plane, takes no new locks,
// and is bitwise-identical to a run before this subsystem existed.

#ifndef FUSEME_TELEMETRY_OBSERVABILITY_H_
#define FUSEME_TELEMETRY_OBSERVABILITY_H_

#include <chrono>
#include <cstdint>
#include <memory>

#include "common/result.h"
#include "telemetry/event_journal.h"
#include "telemetry/http_exporter.h"
#include "telemetry/metrics.h"

namespace fuseme {

/// Engine-facing knobs; every default means "disabled".
struct ObservabilityOptions {
  /// Flight-recorder capacity in events; 0 disables the journal.
  std::int64_t journal_capacity = 0;
  /// Exporter TCP port on loopback: -1 disables the exporter (default),
  /// 0 binds an ephemeral port (read it back from the plane), 1-65535
  /// binds that port.
  int exporter_port = -1;
  /// Install the fatal-log hook that dumps the journal's last events to
  /// stderr when a FUSEME_CHECK fails.  Requires the journal.  Process-
  /// global (last attach wins), hence opt-in.
  bool crash_dump = false;

  [[nodiscard]] bool any_enabled() const {
    return journal_capacity > 0 || exporter_port >= 0;
  }

  /// Structural validity: non-negative capacity, port range, and
  /// cross-field requirements (the exporter needs a source, crash_dump
  /// needs the journal).
  [[nodiscard]] Status Validate(bool have_metrics) const;
};

/// Owns whichever of journal/exporter the options enable.  The destructor
/// stops the exporter's threads before the journal goes away.
class ObservabilityPlane {
 public:
  /// Builds and starts the enabled pieces.  `metrics` may be null only
  /// when the options don't need it (Validate enforces this); `epoch`
  /// anchors journal timestamps — pass the engine Tracer's
  /// epoch so /flightz and TRACE_*.json share a clock.
  static Result<std::unique_ptr<ObservabilityPlane>> Start(
      const ObservabilityOptions& options, const MetricsRegistry* metrics,
      std::chrono::steady_clock::time_point epoch =
          std::chrono::steady_clock::now());

  ~ObservabilityPlane();

  ObservabilityPlane(const ObservabilityPlane&) = delete;
  ObservabilityPlane& operator=(const ObservabilityPlane&) = delete;

  /// Null when the corresponding piece is disabled.
  [[nodiscard]] EventJournal* journal() { return journal_.get(); }
  [[nodiscard]] const EventJournal* journal() const { return journal_.get(); }

  /// Bound exporter port, or -1 when the exporter is disabled.
  [[nodiscard]] int exporter_port() const;

 private:
  ObservabilityPlane() = default;

  ObservabilityOptions options_;
  std::unique_ptr<EventJournal> journal_;
  std::unique_ptr<HttpExporter> exporter_;
  bool crash_dump_attached_ = false;
};

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_OBSERVABILITY_H_
