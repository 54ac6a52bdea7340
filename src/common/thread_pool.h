// Fixed-size thread pool powering the parallel execution runtime.
//
// The one entry point is ParallelFor: it runs fn(i) over an index range
// with dynamic scheduling; the calling thread participates, so the loop
// completes even when every worker is busy.  The caller waits only for
// helpers that actually started on the loop, never for one still queued.
//
// A process-wide pool (GlobalThreadPool) serves every level of
// parallelism: operator work items, the k-slice groups of a cuboid
// column, and the row slabs of the block GEMM and sparse kernels.  Loops
// nest: a ParallelFor issued from a worker borrows only the workers that
// are idle at that moment and runs inline when none is, so nesting never
// oversubscribes the pool and never deadlocks.
//
// Sizing: GlobalParallelism() defaults to FUSEME_THREADS (env) or
// std::thread::hardware_concurrency(); SetGlobalThreadPoolThreads overrides
// it (1 = fully serial).  The pool owns parallelism-1 workers because the
// caller of ParallelFor is the extra thread.

#ifndef FUSEME_COMMON_THREAD_POOL_H_
#define FUSEME_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/synchronization.h"

namespace fuseme {

class ThreadPool {
 public:
  /// Spawns `num_threads` worker threads (clamped to >= 0).  With zero
  /// workers every ParallelFor executes inline on the caller.
  explicit ThreadPool(int num_threads);
  /// Drains the queue (queued helpers run, they are not dropped), then
  /// joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers.
  bool InWorker() const;

  /// Current number of queued (not yet started) tasks.  Approximate by
  /// nature — the queue moves while the caller looks — used by telemetry
  /// to sample pool backlog, never for control flow.
  std::size_t ApproxQueueDepth() const;

  /// Runs fn(i) for every i in [begin, end), blocking until all calls have
  /// completed.  Indices are claimed dynamically; the caller participates.
  /// The first exception (lowest index among those observed) is rethrown
  /// after the loop drains; remaining unclaimed indices are skipped once an
  /// exception occurs.  `max_parallelism` caps the number of threads
  /// working on the loop, caller included (0 = no cap; 1 = inline serial,
  /// in index order).  A call from a worker enqueues at most as many
  /// helpers as there are idle workers, running inline when there are
  /// none.  The caller returns once the range is done and every helper
  /// that joined it has left; helpers still queued then find the range
  /// closed and return at once.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t)>& fn,
                   int max_parallelism = 0);

 private:
  /// Queues a loop helper.  ParallelFor enqueues at most num_threads()
  /// helpers, so a pool without workers never gets here.
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Workers blocked waiting for a task.  Written under mu_ by WorkerLoop,
  /// read without it by ParallelFor as a sizing hint.
  std::atomic<int> idle_{0};
  /// Written only by the constructor, before any worker can observe the
  /// pool; read-only afterwards, so unguarded.
  std::vector<std::thread> workers_;
};

/// The process-wide pool, created on first use with GlobalParallelism()-1
/// workers.
ThreadPool* GlobalThreadPool();

/// Total parallelism (workers + the calling thread) the global pool is
/// configured for.  Defaults to the FUSEME_THREADS environment variable,
/// else std::thread::hardware_concurrency(), floored at 1.
int GlobalParallelism();

/// Reconfigures the global pool for `num_threads` total parallelism
/// (1 = serial).  Joins the previous workers first.  Not safe to call while
/// another thread is using the pool; intended for process startup, tests,
/// and benchmark harnesses.
void SetGlobalThreadPoolThreads(int num_threads);

}  // namespace fuseme

#endif  // FUSEME_COMMON_THREAD_POOL_H_
