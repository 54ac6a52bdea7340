#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/synchronization.h"

namespace fuseme {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(3);
  auto fut = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto fut = pool.Submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::thread::id caller = std::this_thread::get_id();
  auto fut = pool.Submit([&] { return std::this_thread::get_id(); });
  EXPECT_EQ(fut.get(), caller);
  std::vector<int> order;
  pool.ParallelFor(0, 5, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](std::int64_t i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(3, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(7, 8, [&](std::int64_t i) {
    ++calls;
    EXPECT_EQ(i, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, MaxParallelismOneIsSerialInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;  // unsynchronized on purpose: must be serial
  pool.ParallelFor(0, 100, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));
  }, /*max_parallelism=*/1);
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexedException) {
  ThreadPool pool(4);
  // Run many times: which failing indices actually execute is scheduling
  // dependent (the abort flag skips unclaimed work), but the rethrown
  // exception must be the lowest index among those that threw — never a
  // tear of the two messages, never a silent success.
  for (int round = 0; round < 20; ++round) {
    try {
      pool.ParallelFor(0, 1000, [&](std::int64_t i) {
        if (i == 3 || i == 700) {
          throw std::runtime_error("fail at " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what == "fail at 3" || what == "fail at 700") << what;
    }
  }
}

TEST(ThreadPoolTest, SerialParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  int last_seen = -1;
  try {
    pool.ParallelFor(0, 100, [&](std::int64_t i) {
      last_seen = static_cast<int>(i);
      if (i == 10) throw std::runtime_error("ten");
    }, /*max_parallelism=*/1);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "ten");
  }
  // Serial mode stops at the throwing index.
  EXPECT_EQ(last_seen, 10);
}

TEST(ThreadPoolTest, NestedParallelForCompletesWithAllWorkersBusy) {
  ThreadPool pool(3);
  // Park two workers on a gate, then run a nested loop on the third: no
  // worker is idle, so the loop must finish on its caller alone instead of
  // waiting for helpers that cannot start until the gate opens.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> parked{0};
  std::vector<std::future<void>> blockers;
  for (int b = 0; b < 2; ++b) {
    blockers.push_back(pool.Submit([&parked, opened] {
      parked.fetch_add(1);
      opened.wait();
    }));
  }
  while (parked.load() < 2) std::this_thread::yield();
  auto nested = pool.Submit([&pool] {
    std::atomic<int> inner{0};
    pool.ParallelFor(0, 16, [&](std::int64_t) { inner.fetch_add(1); });
    return inner.load();
  });
  const bool finished =
      nested.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.set_value();
  ASSERT_TRUE(finished) << "nested loop waited on parked workers";
  EXPECT_EQ(nested.get(), 16);
  for (std::future<void>& b : blockers) b.get();
}

TEST(ThreadPoolTest, NestedLoopsCoverEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.ParallelFor(0, 8, [&](std::int64_t outer) {
    pool.ParallelFor(0, 16, [&](std::int64_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForFromWorkerUsesIdleWorkers) {
  ThreadPool pool(3);
  // A loop started on one worker while the other two sit idle must borrow
  // them.  Idleness is sampled as a hint, so a worker still on its way
  // back to the queue can be missed: retry a few rounds, then require at
  // least one round to have spread.
  std::size_t widest = 0;
  for (int round = 0; round < 20 && widest < 2; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto nested = pool.Submit([&pool] {
      Mutex mu;
      std::set<std::thread::id> threads;
      pool.ParallelFor(0, 16, [&](std::int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        MutexLock lock(mu);
        threads.insert(std::this_thread::get_id());
      });
      MutexLock lock(mu);
      return threads.size();
    });
    widest = std::max(widest, nested.get());
  }
  EXPECT_GE(widest, 2u);
}

TEST(ThreadPoolTest, CallerDoesNotWaitForQueuedHelper) {
  ThreadPool pool(1);
  // The only worker is parked on a gate, so the helper ParallelFor queues
  // cannot start.  The caller must drain the range itself and return.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> parked{false};
  auto blocker = pool.Submit([&parked, opened] {
    parked.store(true);
    opened.wait();
  });
  while (!parked.load()) std::this_thread::yield();
  std::atomic<int> calls{0};
  std::atomic<int> off_caller{0};
  auto loop = std::async(std::launch::async, [&] {
    const std::thread::id loop_caller = std::this_thread::get_id();
    pool.ParallelFor(0, 8, [&](std::int64_t) {
      calls.fetch_add(1);
      if (std::this_thread::get_id() != loop_caller) off_caller.fetch_add(1);
    });
  });
  const bool returned =
      loop.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.set_value();
  ASSERT_TRUE(returned) << "caller waited for a helper that never started";
  loop.get();
  blocker.get();
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(off_caller.load(), 0);
}

TEST(ThreadPoolTest, NestedParallelForRethrowsLowestIndexFirst) {
  ThreadPool pool(3);
  // Every index throws.  Index 0 is always claimed first and so always
  // runs; whatever else ran, its exception is the one rethrown — at top
  // level and from a worker alike.
  auto lowest_failure = [&pool] {
    try {
      pool.ParallelFor(0, 64, [](std::int64_t i) {
        throw std::runtime_error("fail at " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(lowest_failure(), "fail at 0");
    EXPECT_EQ(pool.Submit(lowest_failure).get(), "fail at 0");
  }
}

TEST(ThreadPoolTest, InWorkerIsTrueOnlyOnPoolThreads) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.InWorker());
  auto fut = pool.Submit([&] { return pool.InWorker(); });
  EXPECT_TRUE(fut.get());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool must run all 64 tasks before joining.
  EXPECT_EQ(ran.load(), 64);
}

TEST(GlobalThreadPoolTest, ResizeControlsParallelism) {
  const int before = GlobalParallelism();
  SetGlobalThreadPoolThreads(1);
  EXPECT_EQ(GlobalParallelism(), 1);
  EXPECT_EQ(GlobalThreadPool()->num_threads(), 0);
  SetGlobalThreadPoolThreads(4);
  EXPECT_EQ(GlobalParallelism(), 4);
  EXPECT_EQ(GlobalThreadPool()->num_threads(), 3);
  std::atomic<int> count{0};
  GlobalThreadPool()->ParallelFor(0, 100,
                                  [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  SetGlobalThreadPoolThreads(before);
}

}  // namespace
}  // namespace fuseme
