#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/synchronization.h"

namespace fuseme {
namespace {

/// Runs `fn` once on one of `pool`'s workers (the pool needs at least
/// one, and the caller must not be one of them) and returns when it has
/// finished.  A two-index loop: the worker's index runs `fn`; the caller's
/// index, if it gets one, waits until a worker has taken `fn`, and the
/// loop then waits for that worker to leave.
void RunOnAWorker(ThreadPool& pool, const std::function<void()>& fn) {
  std::atomic<bool> taken{false};
  pool.ParallelFor(0, 2, [&](std::int64_t) {
    if (pool.InWorker()) {
      if (!taken.exchange(true)) fn();
    } else {
      while (!taken.load()) std::this_thread::yield();
    }
  }, /*max_parallelism=*/2);
}

/// Parks `count` of `pool`'s workers (count <= num_threads()) on `gate`
/// from a plain thread, returning once all of them are parked.  The plain
/// thread's own index waits until the workers have arrived, so it never
/// claims a worker's index; join the returned thread after opening the
/// gate.
std::thread ParkWorkers(ThreadPool& pool, int count,
                        std::shared_future<void> gate) {
  auto parked = std::make_shared<std::atomic<int>>(0);
  std::thread parker([&pool, count, gate, parked] {
    pool.ParallelFor(0, count + 1, [&](std::int64_t) {
      if (pool.InWorker()) {
        parked->fetch_add(1);
        gate.wait();
      } else {
        while (parked->load() < count) std::this_thread::yield();
      }
    }, /*max_parallelism=*/count + 1);
  });
  while (parked->load() < count) std::this_thread::yield();
  return parker;
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;  // unsynchronized on purpose: must be inline
  std::vector<std::thread::id> ran_on;
  pool.ParallelFor(0, 5, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(5, caller));
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
  std::thread parker = ParkWorkers(pool, 2, opened);
  std::promise<int> inner_calls;
  std::future<int> nested = inner_calls.get_future();
  std::thread driver([&] {
    RunOnAWorker(pool, [&] {
      std::atomic<int> inner{0};
      pool.ParallelFor(0, 16, [&](std::int64_t) { inner.fetch_add(1); });
      inner_calls.set_value(inner.load());
    });
  });
  const bool finished =
      nested.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.set_value();
  driver.join();
  parker.join();
  ASSERT_TRUE(finished) << "nested loop waited on parked workers";
  EXPECT_EQ(nested.get(), 16);
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
    RunOnAWorker(pool, [&] {
      Mutex mu;
      std::set<std::thread::id> threads;
      pool.ParallelFor(0, 16, [&](std::int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        MutexLock lock(mu);
        threads.insert(std::this_thread::get_id());
      });
      MutexLock lock(mu);
      widest = std::max(widest, threads.size());
    });
  }
  EXPECT_GE(widest, 2u);
}

TEST(ThreadPoolTest, NestedParallelForBorrowsOnlyIdleWorkers) {
  ThreadPool pool(3);
  // One worker parked, one running the outer body, one idle: the nested
  // loop may spread over its own thread and the idle worker, never more,
  // so nesting cannot oversubscribe the pool.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::thread parker = ParkWorkers(pool, 1, opened);
  Mutex mu;
  std::set<std::thread::id> threads;
  int calls = 0;
  RunOnAWorker(pool, [&] {
    pool.ParallelFor(0, 64, [&](std::int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      MutexLock lock(mu);
      threads.insert(std::this_thread::get_id());
      ++calls;
    });
  });
  gate.set_value();
  parker.join();
  MutexLock lock(mu);
  EXPECT_EQ(calls, 64);
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 2u);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  // Two plain threads share one pool (as two engines executing at once
  // share the global pool): each loop still runs every index exactly
  // once and returns.
  ThreadPool pool(3);
  constexpr int kN = 5000;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread first([&] {
    pool.ParallelFor(0, kN, [&](std::int64_t i) { a[i].fetch_add(1); });
  });
  std::thread second([&] {
    pool.ParallelFor(0, kN, [&](std::int64_t i) { b[i].fetch_add(1); });
  });
  first.join();
  second.join();
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i].load(), 1) << "first loop, index " << i;
    ASSERT_EQ(b[i].load(), 1) << "second loop, index " << i;
  }
}

TEST(ThreadPoolTest, CallerDoesNotWaitForQueuedHelper) {
  ThreadPool pool(1);
  // The only worker is parked on a gate, so the helper ParallelFor queues
  // cannot start.  The caller must drain the range itself and return.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::thread parker = ParkWorkers(pool, 1, opened);
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
  parker.join();
  ASSERT_TRUE(returned) << "caller waited for a helper that never started";
  loop.get();
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
    std::string from_worker;
    RunOnAWorker(pool, [&] { from_worker = lowest_failure(); });
    EXPECT_EQ(from_worker, "fail at 0");
  }
}

TEST(ThreadPoolTest, InWorkerIsTrueOnlyOnPoolThreads) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.InWorker());
  bool on_worker = false;
  bool on_other_pool = true;
  RunOnAWorker(pool, [&] {
    on_worker = pool.InWorker();
    on_other_pool = other.InWorker();
  });
  EXPECT_TRUE(on_worker);
  EXPECT_FALSE(on_other_pool);
  // A loop body the caller runs inline stays off the pool's workers.
  ThreadPool inline_pool(0);
  bool inline_in_worker = true;
  inline_pool.ParallelFor(0, 1, [&](std::int64_t) {
    inline_in_worker = inline_pool.InWorker();
  });
  EXPECT_FALSE(inline_in_worker);
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
