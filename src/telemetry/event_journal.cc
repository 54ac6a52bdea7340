#include "telemetry/event_journal.h"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/json_util.h"

namespace fuseme {

namespace {

Result<LogLevel> ParseSeverity(const std::string& label) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarning,
                         LogLevel::kError}) {
    if (label == LogLevelLabel(level)) return level;
  }
  return Status::InvalidArgument("journal JSON: unknown severity \"" + label +
                                 "\"");
}

void AppendEventJson(const JournalEvent& e, std::ostringstream& out) {
  out << "{\"seq\": " << e.seq << ", \"t_us\": " << e.t_us
      << ", \"severity\": \"" << LogLevelLabel(e.severity) << "\", \"id\": \""
      << JsonEscape(e.id) << "\", \"payload\": {";
  bool first = true;
  for (const auto& [key, value] : e.payload) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(key) << "\": \"" << JsonEscape(value) << "\"";
  }
  out << "}}";
}

}  // namespace

EventJournal::EventJournal(std::int64_t capacity,
                           std::chrono::steady_clock::time_point epoch)
    : epoch_(epoch) {
  if (capacity < kShards) capacity = kShards;
  shard_capacity_ = (capacity + kShards - 1) / kShards;
  capacity_ = shard_capacity_ * kShards;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.ring.resize(static_cast<std::size_t>(shard_capacity_));
  }
}

std::int64_t EventJournal::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EventJournal::Emit(
    LogLevel severity, std::string_view id,
    std::vector<std::pair<std::string, std::string>> payload) {
  JournalEvent event;
  // Sequence and timestamp are claimed before taking the shard lock so
  // the critical section is just the slot move.  Timestamps can be
  // microseconds out of order relative to sequence under contention;
  // `seq` is the authoritative order.
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.t_us = NowMicros();
  event.severity = severity;
  event.id.assign(id.data(), id.size());
  event.payload = std::move(payload);

  Shard& shard = shards_[event.seq % kShards];
  const std::size_t slot = static_cast<std::size_t>(
      (event.seq / kShards) % shard_capacity_);
  MutexLock lock(shard.mu);
  ++shard.appended;
  // An emitter preempted between claiming its sequence and taking the
  // lock can arrive after a newer event already took the same slot; the
  // late, older event is the one the ring has overwritten, so drop it.
  JournalEvent& held = shard.ring[slot];
  if (!held.id.empty() && held.seq > event.seq) return;
  held = std::move(event);
}

std::vector<JournalEvent> EventJournal::Snapshot() const {
  std::vector<JournalEvent> events;
  events.reserve(static_cast<std::size_t>(capacity_));
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    // Only slots that have ever been written hold events; a ring that
    // wrapped holds its most recent shard_capacity_ entries.
    const std::int64_t held = std::min(shard.appended, shard_capacity_);
    for (std::int64_t i = 0; i < held; ++i) {
      // Racing emitters may overwrite a slot between claiming a sequence
      // and our lock; the copy is still a coherent event either way.
      events.push_back(shard.ring[static_cast<std::size_t>(i) %
                                  static_cast<std::size_t>(shard_capacity_)]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const JournalEvent& a, const JournalEvent& b) {
              return a.seq < b.seq;
            });
  // Slots overwritten mid-snapshot can leave a stale and a fresh copy of
  // the same ring position but never the same seq twice; dedup is
  // unnecessary, but drop any default-constructed hole (seq 0 twice can't
  // happen, empty id can only be a never-written slot racing `appended`).
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const JournalEvent& e) {
                                return e.id.empty();
                              }),
               events.end());
  return events;
}

std::string EventJournal::DumpJson() const {
  const std::vector<JournalEvent> events = Snapshot();
  std::ostringstream out;
  out << "{\"emitted\": " << total_emitted()
      << ", \"capacity\": " << capacity_ << ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out << ", ";
    AppendEventJson(events[i], out);
  }
  out << "]}";
  return out.str();
}

Result<std::vector<JournalEvent>> ParseJournalJson(const std::string& json) {
  JsonReader reader(json, "journal JSON");
  std::vector<JournalEvent> events;
  FUSEME_RETURN_IF_ERROR(reader.Expect('{'));
  if (!reader.TryConsume('}')) {
    do {
      FUSEME_ASSIGN_OR_RETURN(const std::string key, reader.ReadString());
      FUSEME_RETURN_IF_ERROR(reader.Expect(':'));
      if (key != "events") {
        FUSEME_RETURN_IF_ERROR(reader.SkipValue());
        continue;
      }
      FUSEME_RETURN_IF_ERROR(reader.Expect('['));
      if (reader.TryConsume(']')) continue;
      do {
        JournalEvent event;
        FUSEME_RETURN_IF_ERROR(reader.Expect('{'));
        if (!reader.TryConsume('}')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(const std::string field,
                                    reader.ReadString());
            FUSEME_RETURN_IF_ERROR(reader.Expect(':'));
            if (field == "seq") {
              FUSEME_ASSIGN_OR_RETURN(event.seq, reader.ReadInt());
            } else if (field == "t_us") {
              FUSEME_ASSIGN_OR_RETURN(event.t_us, reader.ReadInt());
            } else if (field == "severity") {
              FUSEME_ASSIGN_OR_RETURN(const std::string label,
                                      reader.ReadString());
              FUSEME_ASSIGN_OR_RETURN(event.severity, ParseSeverity(label));
            } else if (field == "id") {
              FUSEME_ASSIGN_OR_RETURN(event.id, reader.ReadString());
            } else if (field == "payload") {
              FUSEME_RETURN_IF_ERROR(reader.Expect('{'));
              if (!reader.TryConsume('}')) {
                do {
                  FUSEME_ASSIGN_OR_RETURN(std::string pkey,
                                          reader.ReadString());
                  FUSEME_RETURN_IF_ERROR(reader.Expect(':'));
                  FUSEME_ASSIGN_OR_RETURN(std::string pvalue,
                                          reader.ReadString());
                  event.payload.emplace_back(std::move(pkey),
                                             std::move(pvalue));
                } while (reader.TryConsume(','));
                FUSEME_RETURN_IF_ERROR(reader.Expect('}'));
              }
            } else {
              FUSEME_RETURN_IF_ERROR(reader.SkipValue());
            }
          } while (reader.TryConsume(','));
          FUSEME_RETURN_IF_ERROR(reader.Expect('}'));
        }
        events.push_back(std::move(event));
      } while (reader.TryConsume(','));
      FUSEME_RETURN_IF_ERROR(reader.Expect(']'));
    } while (reader.TryConsume(','));
    FUSEME_RETURN_IF_ERROR(reader.Expect('}'));
  }
  return events;
}

namespace {

// The crash hook runs on the fatal path with arbitrary locks possibly
// held by *other* threads; EventJournal's shard mutexes are leaf locks
// held only for slot copies, so DumpJson here can only deadlock if the
// crashing thread itself died inside Emit — acceptable for a
// last-words diagnostic.
void DumpJournalOnFatal(void* arg) {
  auto* journal = static_cast<EventJournal*>(arg);
  std::cerr << "[FATAL] flight recorder (last " << journal->capacity()
            << " events): " << journal->DumpJson() << std::endl;
}

}  // namespace

void AttachJournalCrashDump(EventJournal* journal) {
  if (journal == nullptr) {
    SetFatalLogHook(nullptr, nullptr);
    return;
  }
  SetFatalLogHook(&DumpJournalOnFatal, journal);
}

}  // namespace fuseme
