// Span tracing for the execution runtime (see DESIGN.md section 10).
//
// A Tracer collects timed spans — stages, operator work items, kernel
// phases — from any thread.  Timestamps are microseconds since the
// tracer's construction on a monotonic clock; thread ids are small stable
// integers assigned on first use, so traces are readable and diffable.
// The collected spans export to the Chrome trace-event JSON format, which
// chrome://tracing and https://ui.perfetto.dev open directly, and parse
// back for round-trip tests and tooling.
//
// Tracing is strictly optional: every integration point takes a nullable
// Tracer* and a null tracer makes ScopedSpan a no-op, so untraced runs pay
// nothing but a pointer test per span site.

#ifndef FUSEME_TELEMETRY_TRACER_H_
#define FUSEME_TELEMETRY_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/synchronization.h"

namespace fuseme {

/// One completed span: a named interval on a thread, with free-form
/// string arguments (rendered by the trace viewers' detail pane).
struct TraceSpan {
  std::string name;
  std::string category;
  std::int64_t begin_us = 0;  // microseconds since the tracer's epoch
  std::int64_t end_us = 0;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> args;

  std::int64_t duration_us() const { return end_us - begin_us; }
  bool operator==(const TraceSpan&) const = default;
};

/// Thread-safe span sink.  Record() may be called concurrently from pool
/// workers; snapshot accessors copy under the same mutex.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  /// Anchors timestamps at `epoch` instead of construction time, so
  /// several sinks (tracer, event journal) can share one clock
  /// origin and their outputs correlate by timestamp.
  explicit Tracer(std::chrono::steady_clock::time_point epoch)
      : epoch_(epoch) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The zero point of every *_us field in this tracer's spans.  The
  /// engine hands this epoch to its EventJournal so journal
  /// timestamps line up with TRACE_*.json.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

  /// Microseconds elapsed since this tracer was constructed.
  std::int64_t NowMicros() const;

  /// Stable small id for the calling thread (assigned on first use).
  int CurrentThreadId();

  /// Names a thread / the process for the trace viewers: exported as
  /// Chrome "M" (metadata) records, so Perfetto's track list shows
  /// "pool-worker-3" instead of a bare tid.  Last write wins.
  void SetThreadName(int tid, std::string name);
  void SetProcessName(std::string name);
  /// SetThreadName(CurrentThreadId(), name) — what work items call.
  void NameCurrentThread(std::string name);

  [[nodiscard]] std::map<int, std::string> thread_names() const;
  [[nodiscard]] std::string process_name() const;

  void Record(TraceSpan span);

  /// Snapshot of the recorded spans, sorted by (begin_us, tid, name) so
  /// output is deterministic regardless of completion interleaving.
  std::vector<TraceSpan> spans() const;
  std::size_t size() const;
  void Clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}, "X" complete
  /// events).  Loadable by chrome://tracing and Perfetto.
  std::string ToChromeJson() const;
  /// Writes ToChromeJson() to `path`; false (with a stderr warning) when
  /// the file is not writable.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  std::map<std::thread::id, int> thread_ids_ GUARDED_BY(mu_);
  std::map<int, std::string> thread_names_ GUARDED_BY(mu_);
  std::string process_name_ GUARDED_BY(mu_) = "fuseme";
};

/// RAII span: captures begin on construction, records on destruction.
/// A null tracer disables it entirely.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string category);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddArg(std::string key, std::string value);

 private:
  Tracer* tracer_;
  TraceSpan span_;
};

/// Everything ParseChromeTraceFull recovers from an exported trace:
/// complete ("X") spans plus the thread/process-name metadata ("M")
/// records.
struct ParsedChromeTrace {
  std::vector<TraceSpan> spans;
  std::map<int, std::string> thread_names;
  std::string process_name;
};

/// Parses a trace produced by Tracer::ToChromeJson back into spans (the
/// inverse of the exporter; used by the round-trip tests and any tooling
/// that post-processes traces).  Unknown top-level keys are ignored;
/// events other than "X" (complete) are skipped.
Result<std::vector<TraceSpan>> ParseChromeTrace(const std::string& json);

/// Like ParseChromeTrace but also returns the "M" metadata records
/// (thread_name / process_name) the exporter emits.
Result<ParsedChromeTrace> ParseChromeTraceFull(const std::string& json);

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_TRACER_H_
