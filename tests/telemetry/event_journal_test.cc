// Flight-recorder journal: sequencing, ring overwrite semantics, the
// multi-threaded emission contract, and the JSON dump round-trip.

#include "telemetry/event_journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/event_names.h"

namespace fuseme {
namespace {

TEST(EventJournalTest, EmitAndSnapshotPreservesOrderAndPayload) {
  EventJournal journal(/*capacity=*/64);
  journal.Emit(LogLevel::kInfo, event_names::kRunStart, {{"mode", "real"}});
  journal.Emit(LogLevel::kWarning, event_names::kStageDegraded,
               {{"stage", "s0"}, {"to", "cpmm (1,1,2)"}});
  journal.Emit(LogLevel::kError, event_names::kRunFinish);

  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0);
  EXPECT_EQ(events[0].id, event_names::kRunStart);
  EXPECT_EQ(events[0].severity, LogLevel::kInfo);
  ASSERT_EQ(events[0].payload.size(), 1u);
  EXPECT_EQ(events[0].payload[0].first, "mode");
  EXPECT_EQ(events[0].payload[0].second, "real");
  EXPECT_EQ(events[1].seq, 1);
  EXPECT_EQ(events[1].severity, LogLevel::kWarning);
  ASSERT_EQ(events[1].payload.size(), 2u);
  EXPECT_EQ(events[2].seq, 2);
  EXPECT_EQ(events[2].severity, LogLevel::kError);
  EXPECT_GE(events[0].t_us, 0);
  EXPECT_EQ(journal.total_emitted(), 3);
  EXPECT_EQ(journal.overwritten(), 0);
}

TEST(EventJournalTest, CapacityRoundsUpToShardMultiple) {
  // 8 shards need at least one slot each; odd capacities round up.
  EXPECT_EQ(EventJournal(1).capacity(), 8);
  EXPECT_EQ(EventJournal(9).capacity(), 16);
  EXPECT_EQ(EventJournal(16).capacity(), 16);
}

TEST(EventJournalTest, FullRingOverwritesOldestFirst) {
  EventJournal journal(/*capacity=*/16);
  constexpr std::int64_t kEmitted = 100;
  for (std::int64_t i = 0; i < kEmitted; ++i) {
    journal.Emit(LogLevel::kInfo, event_names::kStageCommit,
                 {{"ordinal", std::to_string(i)}});
  }
  EXPECT_EQ(journal.total_emitted(), kEmitted);
  EXPECT_EQ(journal.overwritten(), kEmitted - 16);

  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Exactly the newest 16 sequences survive, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, kEmitted - 16 + static_cast<std::int64_t>(i));
  }
}

// Acceptance criterion: 8 emitting threads, ring far smaller than the
// emission count; the journal must never block, never duplicate a
// sequence, and a final snapshot is strictly ordered within capacity.
TEST(EventJournalHammerTest, EightThreadsWraparound) {
  EventJournal journal(/*capacity=*/64);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        journal.Emit(LogLevel::kInfo, event_names::kStageCommit,
                     {{"thread", std::to_string(t)}, {"i", std::to_string(i)}});
        if (i % 64 == 0) {
          // Concurrent readers must not block or tear events.
          const std::vector<JournalEvent> mid = journal.Snapshot();
          for (std::size_t k = 1; k < mid.size(); ++k) {
            ASSERT_LT(mid[k - 1].seq, mid[k].seq);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(journal.total_emitted(), kThreads * kPerThread);
  const std::vector<JournalEvent> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_LT(events[i - 1].seq, events[i].seq);
  }
  // The retained window is the tail of the sequence space.
  EXPECT_GE(events.front().seq, kThreads * kPerThread - 64 - kThreads);
  EXPECT_EQ(events.back().seq, kThreads * kPerThread - 1);
}

// An emitter preempted between claiming its sequence and writing its
// slot must not replace the newer event that took the slot meanwhile:
// once every emitter has returned, the ring is exactly the newest
// `capacity` sequences, however the writes interleaved.
TEST(EventJournalHammerTest, RetainedWindowIsExactTail) {
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 4000;
  constexpr std::int64_t kTotal = kThreads * kPerThread;
  // Capacity 8 is one slot per shard, so every emission collides.
  for (std::int64_t capacity : {8, 64}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    EventJournal journal(capacity);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&journal] {
        for (std::int64_t i = 0; i < kPerThread; ++i) {
          journal.Emit(LogLevel::kInfo, event_names::kStageCommit);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    const std::vector<JournalEvent> events = journal.Snapshot();
    ASSERT_EQ(static_cast<std::int64_t>(events.size()), capacity);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].seq,
                kTotal - capacity + static_cast<std::int64_t>(i));
    }
  }
}

TEST(EventJournalTest, DumpJsonRoundTrips) {
  EventJournal journal(/*capacity=*/16);
  journal.Emit(LogLevel::kInfo, event_names::kRunStart,
               {{"system", "FuseME"}, {"plans", "3"}});
  journal.Emit(LogLevel::kWarning, event_names::kStageDegraded,
               {{"from", "fused"}, {"to", "materialized"}});
  journal.Emit(LogLevel::kError, event_names::kVerifierDiagnostic,
               {{"detail", "quoted \"text\" with\nnewline"}});

  const std::string json = journal.DumpJson();
  Result<std::vector<JournalEvent>> parsed = ParseJournalJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, journal.Snapshot());
}

TEST(EventJournalTest, ParseJournalJsonRejectsGarbage) {
  EXPECT_FALSE(ParseJournalJson("not json").ok());
  EXPECT_FALSE(ParseJournalJson("{\"events\": 7}").ok());
}

TEST(EventJournalTest, CrashDumpAttachDetach) {
  EventJournal journal(/*capacity=*/16);
  journal.Emit(LogLevel::kInfo, event_names::kRunStart);
  // Attach/detach must be safe to do repeatedly; the hook itself only
  // fires on a fatal log, which this test does not trigger.
  AttachJournalCrashDump(&journal);
  AttachJournalCrashDump(&journal);
  AttachJournalCrashDump(nullptr);
}

}  // namespace
}  // namespace fuseme
