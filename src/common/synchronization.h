// Capability-annotated synchronization primitives (DESIGN.md section 16).
//
// Every mutex in the repo is one of these wrappers, never a raw
// std::mutex — `fuseme_lint` (tools/fuseme_lint.cc, rule lint-raw-sync)
// enforces that this header is the only file naming the std primitives.
// The wrappers carry Clang thread-safety capability attributes, so a
// Clang build with -Wthread-safety (enabled automatically, see the root
// CMakeLists.txt) proves at compile time that:
//
//  * every field marked GUARDED_BY(mu) is only touched with mu held;
//  * every helper marked REQUIRES(mu) is only called with mu held;
//  * every MutexLock scope that releases mid-scope re-acquires before
//    the scope ends.
//
// On non-Clang compilers the attribute macros expand to nothing and the
// wrappers are zero-cost shims over std::mutex /
// std::condition_variable, so GCC builds (and TSan/ASan/UBSan builds)
// see the exact same synchronization the annotations describe.
//
// Waiting convention: CondVar has no predicate overload on purpose.
// Predicates arrive as lambdas, which the analysis checks as separate
// functions that do not inherit the caller's held capabilities — a
// predicate reading a GUARDED_BY field would warn.  Write the loop in
// the caller instead, where the analysis can see the lock:
//
//   MutexLock lock(mu_);
//   while (!done_) cv_.Wait(mu_);   // done_ is GUARDED_BY(mu_)

#ifndef FUSEME_COMMON_SYNCHRONIZATION_H_
#define FUSEME_COMMON_SYNCHRONIZATION_H_

#include <condition_variable>
#include <mutex>

// --- Clang thread-safety attribute macros -------------------------------
// The canonical set from the Clang thread-safety-analysis documentation.
// They expand to nothing on other compilers, so annotated code builds
// everywhere and is *verified* wherever Clang is the compiler.

#if defined(__clang__)
#define FUSEME_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define FUSEME_TSA_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Marks a class as a capability (e.g. CAPABILITY("mutex") Mutex).
#define CAPABILITY(x) FUSEME_TSA_ATTRIBUTE(capability(x))
/// Marks an RAII class whose lifetime acquires/releases a capability.
#define SCOPED_CAPABILITY FUSEME_TSA_ATTRIBUTE(scoped_lockable)
/// Field accessible only with the given capability held.
#define GUARDED_BY(x) FUSEME_TSA_ATTRIBUTE(guarded_by(x))
/// Pointer field whose *pointee* requires the capability.
#define PT_GUARDED_BY(x) FUSEME_TSA_ATTRIBUTE(pt_guarded_by(x))
/// Function callable only with the capabilities held (and still held on
/// return).
#define REQUIRES(...) FUSEME_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
/// Function that acquires the capabilities (caller must not hold them).
#define ACQUIRE(...) FUSEME_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
/// Function that releases the capabilities (caller must hold them).
#define RELEASE(...) FUSEME_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns `x`.
#define TRY_ACQUIRE(...) \
  FUSEME_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
/// Function the caller must NOT hold the capabilities around (deadlock
/// documentation: e.g. SetGlobalThreadPoolThreads EXCLUDES the pool).
#define EXCLUDES(...) FUSEME_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))
/// Declares static lock-ordering edges for deadlock detection.
#define ACQUIRED_BEFORE(...) FUSEME_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) FUSEME_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))
/// Function returning a reference to the capability guarding its class.
#define RETURN_CAPABILITY(x) FUSEME_TSA_ATTRIBUTE(lock_returned(x))
/// Escape hatch: function body is not analyzed.  Every use needs a
/// comment explaining why the analysis cannot see the protocol.
#define NO_THREAD_SAFETY_ANALYSIS \
  FUSEME_TSA_ATTRIBUTE(no_thread_safety_analysis)

namespace fuseme {

class CondVar;

/// Annotated exclusive mutex.  Prefer the RAII MutexLock; the manual
/// Lock/Unlock pair exists for the wrapper types and for protocols an
/// RAII scope cannot express.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock scope over a Mutex.  Unlike std::lock_guard it may release
/// and re-acquire mid-scope (Unlock/Lock) — the analysis then proves the
/// scope ends re-acquired, because the destructor unconditionally
/// releases.  A scope that Unlock()s and returns without Lock()ing is a
/// compile error under -Wthread-safety (and undefined behavior at
/// runtime), by design: every wait/relock protocol in the repo ends its
/// scope held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex; pair with Lock() before scope end.
  void Unlock() RELEASE() { mu_.Unlock(); }
  void Lock() ACQUIRE() { mu_.Lock(); }

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex.  Wait atomically releases the
/// mutex and re-acquires it before returning, so from the analysis'
/// point of view the capability is held across the call (REQUIRES) —
/// guarded state may have changed, which is why waits are loops.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible; loop on the
  /// guarded condition).  The caller must hold `mu`.
  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native handle for the duration of the wait;
    // release() hands it back un-dropped so ownership stays with the
    // caller's MutexLock scope.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fuseme

#endif  // FUSEME_COMMON_SYNCHRONIZATION_H_
