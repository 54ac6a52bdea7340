#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <utility>

namespace fuseme {

namespace {

/// Set on a pool's worker threads; a nested ParallelFor from a worker
/// borrows only idle workers.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorker() const { return current_pool == this; }

std::size_t ThreadPool::ApproxQueueDepth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        idle_.fetch_add(1, std::memory_order_relaxed);
        cv_.Wait(mu_);
        idle_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& fn,
                             int max_parallelism) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  std::int64_t helpers = num_threads();
  if (max_parallelism > 0) {
    helpers = std::min<std::int64_t>(helpers, max_parallelism - 1);
  }
  helpers = std::min(helpers, n - 1);
  if (helpers > 0 && InWorker()) {
    // A nested loop borrows only the workers idle right now; when every
    // worker is busy it runs inline.  The count is a racy hint: a helper
    // that starts late is harmless (see below), just useless.
    helpers = std::min<std::int64_t>(helpers,
                                     idle_.load(std::memory_order_relaxed));
  }
  if (helpers <= 0) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Shared loop state.  The caller drains the range, then closes it and
  // waits only for helpers already inside Drain (in_flight); a helper
  // still queued behind busy workers is never waited for.  When it starts
  // it finds the range closed and returns without touching `fn` — the
  // shared_ptr keeps the state alive for it after this frame is gone.
  struct State {
    std::atomic<std::int64_t> next;
    std::int64_t end = 0;
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::atomic<bool> abort{false};
    Mutex mu;
    CondVar helpers_done;
    bool closed GUARDED_BY(mu) = false;
    int in_flight GUARDED_BY(mu) = 0;
    std::exception_ptr error GUARDED_BY(mu);
    std::int64_t error_index GUARDED_BY(mu) =
        std::numeric_limits<std::int64_t>::max();

    void Drain() {
      while (!abort.load(std::memory_order_relaxed)) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) return;
        try {
          (*fn)(i);
        } catch (...) {
          MutexLock lock(mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  auto state = std::make_shared<State>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->fn = &fn;

  for (std::int64_t h = 0; h < helpers; ++h) {
    Enqueue([state]() {
      {
        MutexLock lock(state->mu);
        if (state->closed) return;
        ++state->in_flight;
      }
      state->Drain();
      MutexLock lock(state->mu);
      if (--state->in_flight == 0 && state->closed) {
        state->helpers_done.NotifyAll();
      }
    });
  }
  state->Drain();
  // Move the exception out of the shared state before rethrowing: a
  // queued helper may drop the last State reference on its own thread
  // after we return, and the caller must be able to inspect the caught
  // exception without racing that release.
  std::exception_ptr error;
  {
    MutexLock lock(state->mu);
    state->closed = true;
    while (state->in_flight > 0) state->helpers_done.Wait(state->mu);
    error = std::move(state->error);
    state->error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

Mutex global_pool_mu;
std::unique_ptr<ThreadPool> global_pool GUARDED_BY(global_pool_mu);
int global_parallelism GUARDED_BY(global_pool_mu) = 0;  // 0 = unresolved

int DefaultParallelism() {
  // getenv is mt-unsafe only against concurrent setenv; this read happens
  // on first pool use, before the process mutates its environment.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("FUSEME_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool* GlobalThreadPool() {
  MutexLock lock(global_pool_mu);
  if (global_pool == nullptr) {
    if (global_parallelism == 0) global_parallelism = DefaultParallelism();
    global_pool = std::make_unique<ThreadPool>(global_parallelism - 1);
  }
  return global_pool.get();
}

int GlobalParallelism() {
  MutexLock lock(global_pool_mu);
  if (global_parallelism == 0) global_parallelism = DefaultParallelism();
  return global_parallelism;
}

void SetGlobalThreadPoolThreads(int num_threads) {
  std::unique_ptr<ThreadPool> old;
  {
    MutexLock lock(global_pool_mu);
    global_parallelism = std::max(num_threads, 1);
    old = std::move(global_pool);  // destroyed (joined) outside the lock
    global_pool = std::make_unique<ThreadPool>(global_parallelism - 1);
  }
}

}  // namespace fuseme
