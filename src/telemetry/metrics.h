// Thread-safe metrics registry (see DESIGN.md section 12).
//
// A MetricsRegistry hands out three instrument kinds — Counter (monotone),
// Gauge (set/add with high-water tracking), and Histogram (fixed
// boundaries) — keyed by a stable name (see metric_names.h) plus an
// optional label set, so one name forms a family
// (`fuseme_stage_shuffle_bytes_total{cause="consolidation"}`, ...).
//
// Concurrency contract: instrument lookups take a sharded lock and may
// allocate; mutation (Increment/Add/Set/Observe) is lock-free relaxed
// atomics, safe from any pool worker.  Callers on hot paths resolve the
// instrument pointer once (pointers are stable for the registry's
// lifetime) and bump it per event.  Like the Tracer* convention, every
// integration point takes a nullable MetricsRegistry* and null disables
// instrumentation at the price of one pointer test.
//
// Snapshot() returns a consistent-enough copy (each atom read once,
// relaxed) that exports to JSON, with a round-trip parser for tests and
// tooling.

#ifndef FUSEME_TELEMETRY_METRICS_H_
#define FUSEME_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/synchronization.h"

namespace fuseme {

/// Label set attached to one instrument in a family.  Keys are sorted
/// on registration so {a=1,b=2} and {b=2,a=1} name the same instrument.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event/amount counter.  Add() with a negative delta is a
/// programming error (checked).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(std::int64_t delta);
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time level with high-water tracking: peak() is the maximum
/// value ever Set()/Add()ed, so "worst task memory" survives the gauge
/// returning to zero.
class Gauge {
 public:
  void Set(double value);
  void Add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double peak() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  void RaisePeak(double candidate);

  std::atomic<double> value_{0.0};
  std::atomic<double> peak_{0.0};
};

/// Fixed-boundary histogram.  An observation lands in the first bucket
/// whose upper bound is >= the value; values above the last boundary land
/// in the implicit overflow bucket.  Boundaries must be strictly
/// increasing (checked on registration).
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries);

  void Observe(double value);

  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }
  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Per-bucket (not cumulative) counts; size() == boundaries().size()+1,
  /// the last entry being the overflow bucket.
  [[nodiscard]] std::vector<std::int64_t> bucket_counts() const;

 private:
  std::vector<double> boundaries_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Histogram boundaries for wall-time observations in seconds: eight
/// decade boundaries from 1 microsecond to 10 seconds.
std::vector<double> DefaultTimeBoundaries();

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One instrument's state as read by Snapshot().
struct MetricSample {
  std::string name;
  MetricLabels labels;  // sorted by key
  MetricKind kind = MetricKind::kCounter;

  std::int64_t counter_value = 0;               // kCounter
  double gauge_value = 0.0, gauge_peak = 0.0;   // kGauge
  std::vector<double> boundaries;               // kHistogram
  std::vector<std::int64_t> bucket_counts;      // per-bucket + overflow
  std::int64_t histogram_count = 0;
  double histogram_sum = 0.0;

  bool operator==(const MetricSample&) const = default;
};

/// Point-in-time copy of a registry, sorted by (name, labels) so exports
/// are deterministic.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Finds the sample with exactly this name and label set, or null.
  [[nodiscard]] const MetricSample* Find(std::string_view name,
                                         const MetricLabels& labels = {}) const;
  /// Sum of counter values across every sample of the family `name`.
  [[nodiscard]] std::int64_t CounterTotal(std::string_view name) const;

  /// JSON export; ParseMetricsJson is the exact inverse.
  [[nodiscard]] std::string ToJson() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Parses MetricsSnapshot::ToJson output back (round-trip tests, bench
/// tooling that embeds snapshots).
Result<MetricsSnapshot> ParseMetricsJson(const std::string& json);

/// Structural invariants every live registry maintains: counters >= 0,
/// gauge peak >= current value, histogram count equals the sum of its
/// buckets.  The workload sweep test runs this after every engine run.
[[nodiscard]] Status CheckMetricsConsistency(const MetricsSnapshot& snapshot);

/// Lock-sharded instrument registry.  GetX() registers on first use and
/// returns a pointer that stays valid (and mutation-safe from any thread)
/// until the registry is destroyed.  Asking for an existing name with a
/// different instrument kind or histogram boundaries is a programming
/// error (checked).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge* GetGauge(std::string_view name, MetricLabels labels = {});
  Histogram* GetHistogram(std::string_view name, std::vector<double> boundaries,
                          MetricLabels labels = {});

  [[nodiscard]] MetricsSnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricLabels labels;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Shard {
    mutable Mutex mu;
    // Keyed by name + '\x1f' + canonical labels.  The map (registration)
    // is guarded; the instruments the Entry values own mutate lock-free
    // via their own atomics once a caller holds a pointer.
    std::unordered_map<std::string, Entry> instruments GUARDED_BY(mu);
  };

  Entry* Lookup(std::string_view name, MetricLabels labels, MetricKind kind,
                const std::vector<double>* boundaries);

  static constexpr std::size_t kShards = 16;
  Shard shards_[kShards];
};

/// Installs (or, with null, removes) the logging counter hook so every
/// message past the level filter bumps
/// `fuseme_log_messages_total{level=...}` in `registry`.  The registry
/// must outlive the attachment; call AttachLogMetrics(nullptr) before
/// destroying it.
void AttachLogMetrics(MetricsRegistry* registry);

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_METRICS_H_
