// Flight recorder: a fixed-capacity ring journal of structured engine
// events (see DESIGN.md section 17).
//
// Every event carries a monotonically increasing sequence number, a
// steady-clock timestamp (microseconds since the journal's epoch, which
// the engine shares with its Tracer so journal events line up with
// TRACE_*.json spans), a severity, a stable catalogued id
// (telemetry/event_names.h), and a small key/value payload.
//
// Concurrency contract: Emit never blocks an emitting thread on a
// consumer or on space — the journal is sharded over kShards
// independently-locked rings keyed round-robin by sequence number, an
// append holds exactly one shard mutex for an O(1) slot write, and a
// full ring overwrites its oldest entry instead of waiting (an emitter
// that reaches its slot after a newer event took it is the overwritten
// one, so once emitters quiesce the ring holds exactly the newest
// `capacity` sequences).  Snapshot /
// DumpJson lock the shards one at a time and sort by sequence, so
// readers (a journal-file dump, the crash hook) run concurrently with
// emitters.  Like Tracer*/MetricsRegistry*, every integration point
// takes a nullable EventJournal* and null disables emission at the cost
// of one pointer test.

#ifndef FUSEME_TELEMETRY_EVENT_JOURNAL_H_
#define FUSEME_TELEMETRY_EVENT_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/synchronization.h"

namespace fuseme {

/// One recorded event.  `seq` is unique and dense across the journal's
/// lifetime (it keeps counting past overwrites, so `seq` minus the
/// snapshot's first sequence tells how much history was lost); `t_us`
/// is microseconds since the journal's epoch on the steady clock.
struct JournalEvent {
  std::int64_t seq = 0;
  std::int64_t t_us = 0;
  LogLevel severity = LogLevel::kInfo;
  std::string id;  // catalogued id from telemetry/event_names.h
  std::vector<std::pair<std::string, std::string>> payload;

  bool operator==(const JournalEvent&) const = default;
};

/// Mutex-sharded bounded event ring.  Thread-safe as a whole.
class EventJournal {
 public:
  /// `capacity` is the number of retained events, rounded up to a
  /// multiple of the shard count (minimum one slot per shard);
  /// `epoch` anchors timestamps (pass the Tracer's epoch to correlate).
  explicit EventJournal(std::int64_t capacity,
                        std::chrono::steady_clock::time_point epoch =
                            std::chrono::steady_clock::now());

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Appends one event; never blocks on space (a full ring overwrites
  /// oldest-first).  `id` should be a telemetry/event_names.h constant.
  void Emit(LogLevel severity, std::string_view id,
            std::vector<std::pair<std::string, std::string>> payload = {});

  /// Events currently retained, sorted by strictly increasing `seq`.
  [[nodiscard]] std::vector<JournalEvent> Snapshot() const;

  /// {"events": [{"seq": ..., "t_us": ..., "severity": "...",
  ///   "id": "...", "payload": {...}}, ...], "emitted": N, "capacity": C}
  /// with events ordered by `seq` — the journal file's contents.
  [[nodiscard]] std::string DumpJson() const;

  /// Retained-event bound (post-rounding).
  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  /// Events emitted over the journal's lifetime (>= retained count).
  [[nodiscard]] std::int64_t total_emitted() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring overwrites so far.
  [[nodiscard]] std::int64_t overwritten() const {
    const std::int64_t extra = total_emitted() - capacity_;
    return extra > 0 ? extra : 0;
  }

  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }
  /// Microseconds elapsed since the journal's epoch.
  [[nodiscard]] std::int64_t NowMicros() const;

 private:
  static constexpr std::int64_t kShards = 8;

  struct Shard {
    mutable Mutex mu;
    // Ring indexed by (seq / kShards) % ring.size(); slots fill in shard
    // order, so each shard independently overwrites its own oldest.
    std::vector<JournalEvent> ring GUARDED_BY(mu);
    std::int64_t appended GUARDED_BY(mu) = 0;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::int64_t capacity_ = 0;       // total slots across shards
  std::int64_t shard_capacity_ = 0; // slots per shard
  std::atomic<std::int64_t> next_seq_{0};
  Shard shards_[kShards];
};

/// Parses EventJournal::DumpJson output back into events (round-trip
/// tests and tooling over journal files).  Unknown top-level keys are
/// ignored.
Result<std::vector<JournalEvent>> ParseJournalJson(const std::string& json);

/// Installs (or, with null, removes) the fatal-log hook so a failed
/// FUSEME_CHECK dumps `journal`'s retained events (DumpJson) to stderr
/// before aborting — the flight recorder survives the crash.  The
/// journal must outlive the attachment; call
/// AttachJournalCrashDump(nullptr) before destroying it.
void AttachJournalCrashDump(EventJournal* journal);

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_EVENT_JOURNAL_H_
