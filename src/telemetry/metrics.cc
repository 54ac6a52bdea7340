#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "common/json_util.h"
#include "common/logging.h"
#include "telemetry/metric_names.h"

namespace fuseme {

void Counter::Add(std::int64_t delta) {
  FUSEME_CHECK_GE(delta, 0) << "counters are monotone";
  value_.fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::RaisePeak(double candidate) {
  double observed = peak_.load(std::memory_order_relaxed);
  while (candidate > observed &&
         !peak_.compare_exchange_weak(observed, candidate,
                                      std::memory_order_relaxed)) {
  }
}

// Peak is raised before the value is published so a snapshot never sees
// value > peak (the invariant CheckMetricsConsistency enforces).
void Gauge::Set(double value) {
  RaisePeak(value);
  value_.store(value, std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  double observed = value_.load(std::memory_order_relaxed);
  double desired = observed + delta;
  RaisePeak(desired);
  while (!value_.compare_exchange_weak(observed, desired,
                                       std::memory_order_relaxed)) {
    desired = observed + delta;
    RaisePeak(desired);
  }
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1) {
  FUSEME_CHECK(!boundaries_.empty()) << "histogram needs >= 1 boundary";
  for (std::size_t i = 1; i < boundaries_.size(); ++i) {
    FUSEME_CHECK_LT(boundaries_[i - 1], boundaries_[i])
        << "histogram boundaries must be strictly increasing";
  }
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(boundaries_.begin(), boundaries_.end(), value);
  const auto idx = static_cast<std::size_t>(it - boundaries_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double observed = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(observed, observed + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> DefaultTimeBoundaries() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

namespace {

MetricLabels Canonicalize(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    FUSEME_CHECK(labels[i].first != labels[i - 1].first)
        << "duplicate metric label key '" << labels[i].first << "'";
  }
  return labels;
}

std::string InstrumentKey(std::string_view name, const MetricLabels& labels) {
  std::string key(name);
  for (const auto& [label_key, label_value] : labels) {
    key += '\x1f';
    key += label_key;
    key += '\x1e';
    key += label_value;
  }
  return key;
}

/// Shortest decimal form that strtod parses back to exactly `v` (finite
/// values only), so JSON exports round-trip bit-exactly.
std::string FormatDouble(double v) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     MetricLabels labels) {
  return Lookup(name, std::move(labels), MetricKind::kCounter, nullptr)
      ->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  return Lookup(name, std::move(labels), MetricKind::kGauge, nullptr)
      ->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> boundaries,
                                         MetricLabels labels) {
  return Lookup(name, std::move(labels), MetricKind::kHistogram, &boundaries)
      ->histogram.get();
}

MetricsRegistry::Entry* MetricsRegistry::Lookup(
    std::string_view name, MetricLabels labels, MetricKind kind,
    const std::vector<double>* boundaries) {
  labels = Canonicalize(std::move(labels));
  std::string key = InstrumentKey(name, labels);
  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  MutexLock lock(shard.mu);
  auto [it, inserted] = shard.instruments.try_emplace(std::move(key));
  Entry& entry = it->second;
  if (inserted) {
    entry.name = std::string(name);
    entry.labels = std::move(labels);
    entry.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(*boundaries);
        break;
    }
    return &entry;
  }
  FUSEME_CHECK(entry.kind == kind)
      << "metric '" << entry.name << "' re-registered as " << KindName(kind)
      << ", was " << KindName(entry.kind);
  if (kind == MetricKind::kHistogram) {
    FUSEME_CHECK(entry.histogram->boundaries() == *boundaries)
        << "histogram '" << entry.name
        << "' re-registered with different boundaries";
  }
  return &entry;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.instruments) {
      MetricSample sample;
      sample.name = entry.name;
      sample.labels = entry.labels;
      sample.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          sample.counter_value = entry.counter->value();
          break;
        case MetricKind::kGauge:
          // Peak read after value: RaisePeak-before-publish plus this
          // order keeps peak >= value even mid-mutation.
          sample.gauge_value = entry.gauge->value();
          sample.gauge_peak = entry.gauge->peak();
          break;
        case MetricKind::kHistogram:
          sample.boundaries = entry.histogram->boundaries();
          sample.bucket_counts = entry.histogram->bucket_counts();
          sample.histogram_count = entry.histogram->count();
          sample.histogram_sum = entry.histogram->sum();
          break;
      }
      snapshot.samples.push_back(std::move(sample));
    }
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  return snapshot;
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          const MetricLabels& labels) const {
  const MetricLabels canonical = Canonicalize(labels);
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.labels == canonical) return &sample;
  }
  return nullptr;
}

std::int64_t MetricsSnapshot::CounterTotal(std::string_view name) const {
  std::int64_t total = 0;
  for (const MetricSample& sample : samples) {
    if (sample.name == name && sample.kind == MetricKind::kCounter) {
      total += sample.counter_value;
    }
  }
  return total;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"metrics\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& sample = samples[i];
    out << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << JsonEscape(sample.name)
        << "\", \"kind\": \"" << KindName(sample.kind) << "\", \"labels\": {";
    for (std::size_t l = 0; l < sample.labels.size(); ++l) {
      out << (l == 0 ? "" : ", ") << '"' << JsonEscape(sample.labels[l].first)
          << "\": \"" << JsonEscape(sample.labels[l].second) << '"';
    }
    out << '}';
    switch (sample.kind) {
      case MetricKind::kCounter:
        out << ", \"value\": " << sample.counter_value;
        break;
      case MetricKind::kGauge:
        out << ", \"value\": " << FormatDouble(sample.gauge_value)
            << ", \"peak\": " << FormatDouble(sample.gauge_peak);
        break;
      case MetricKind::kHistogram: {
        out << ", \"boundaries\": [";
        for (std::size_t b = 0; b < sample.boundaries.size(); ++b) {
          out << (b == 0 ? "" : ", ") << FormatDouble(sample.boundaries[b]);
        }
        out << "], \"buckets\": [";
        for (std::size_t b = 0; b < sample.bucket_counts.size(); ++b) {
          out << (b == 0 ? "" : ", ") << sample.bucket_counts[b];
        }
        out << "], \"count\": " << sample.histogram_count
            << ", \"sum\": " << FormatDouble(sample.histogram_sum);
        break;
      }
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

Result<MetricSample> ReadSample(JsonReader* r) {
  MetricSample sample;
  bool have_kind = false;
  FUSEME_RETURN_IF_ERROR(r->Expect('{'));
  if (!r->TryConsume('}')) {
    do {
      FUSEME_ASSIGN_OR_RETURN(std::string key, r->ReadString());
      FUSEME_RETURN_IF_ERROR(r->Expect(':'));
      if (key == "name") {
        FUSEME_ASSIGN_OR_RETURN(sample.name, r->ReadString());
      } else if (key == "kind") {
        FUSEME_ASSIGN_OR_RETURN(std::string kind, r->ReadString());
        have_kind = true;
        if (kind == "counter") {
          sample.kind = MetricKind::kCounter;
        } else if (kind == "gauge") {
          sample.kind = MetricKind::kGauge;
        } else if (kind == "histogram") {
          sample.kind = MetricKind::kHistogram;
        } else {
          return r->Error("unknown metric kind '" + kind + "'");
        }
      } else if (key == "labels") {
        FUSEME_RETURN_IF_ERROR(r->Expect('{'));
        if (!r->TryConsume('}')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(std::string label_key, r->ReadString());
            FUSEME_RETURN_IF_ERROR(r->Expect(':'));
            FUSEME_ASSIGN_OR_RETURN(std::string label_value, r->ReadString());
            sample.labels.emplace_back(std::move(label_key),
                                       std::move(label_value));
          } while (r->TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r->Expect('}'));
        }
      } else if (key == "value") {
        // The writer emits "kind" before any kind-specific field.
        if (!have_kind) return r->Error("\"value\" before \"kind\"");
        if (sample.kind == MetricKind::kCounter) {
          FUSEME_ASSIGN_OR_RETURN(sample.counter_value, r->ReadInt());
        } else {
          FUSEME_ASSIGN_OR_RETURN(sample.gauge_value, r->ReadNumber());
        }
      } else if (key == "peak") {
        FUSEME_ASSIGN_OR_RETURN(sample.gauge_peak, r->ReadNumber());
      } else if (key == "boundaries") {
        FUSEME_RETURN_IF_ERROR(r->Expect('['));
        if (!r->TryConsume(']')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(double boundary, r->ReadNumber());
            sample.boundaries.push_back(boundary);
          } while (r->TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r->Expect(']'));
        }
      } else if (key == "buckets") {
        FUSEME_RETURN_IF_ERROR(r->Expect('['));
        if (!r->TryConsume(']')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(std::int64_t bucket, r->ReadInt());
            sample.bucket_counts.push_back(bucket);
          } while (r->TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r->Expect(']'));
        }
      } else if (key == "count") {
        FUSEME_ASSIGN_OR_RETURN(sample.histogram_count, r->ReadInt());
      } else if (key == "sum") {
        FUSEME_ASSIGN_OR_RETURN(sample.histogram_sum, r->ReadNumber());
      } else {
        FUSEME_RETURN_IF_ERROR(r->SkipValue());
      }
    } while (r->TryConsume(','));
    FUSEME_RETURN_IF_ERROR(r->Expect('}'));
  }
  if (!have_kind) return r->Error("sample missing \"kind\"");
  return sample;
}

}  // namespace

Result<MetricsSnapshot> ParseMetricsJson(const std::string& json) {
  JsonReader r(json, "metrics JSON");
  MetricsSnapshot snapshot;
  bool saw_metrics = false;
  FUSEME_RETURN_IF_ERROR(r.Expect('{'));
  if (!r.TryConsume('}')) {
    do {
      FUSEME_ASSIGN_OR_RETURN(std::string key, r.ReadString());
      FUSEME_RETURN_IF_ERROR(r.Expect(':'));
      if (key == "metrics") {
        saw_metrics = true;
        FUSEME_RETURN_IF_ERROR(r.Expect('['));
        if (!r.TryConsume(']')) {
          do {
            FUSEME_ASSIGN_OR_RETURN(MetricSample sample, ReadSample(&r));
            snapshot.samples.push_back(std::move(sample));
          } while (r.TryConsume(','));
          FUSEME_RETURN_IF_ERROR(r.Expect(']'));
        }
      } else {
        FUSEME_RETURN_IF_ERROR(r.SkipValue());
      }
    } while (r.TryConsume(','));
    FUSEME_RETURN_IF_ERROR(r.Expect('}'));
  }
  if (!saw_metrics) return r.Error("missing \"metrics\"");
  if (!r.AtEnd()) return r.Error("trailing content");
  return snapshot;
}

Status CheckMetricsConsistency(const MetricsSnapshot& snapshot) {
  for (const MetricSample& sample : snapshot.samples) {
    std::string where = "metric '" + sample.name;
    for (std::size_t l = 0; l < sample.labels.size(); ++l) {
      where += (l == 0 ? "{" : ",") + sample.labels[l].first + "=\"" +
               sample.labels[l].second + '"';
    }
    where += sample.labels.empty() ? "'" : "}'";
    switch (sample.kind) {
      case MetricKind::kCounter:
        if (sample.counter_value < 0) {
          return Status::Internal(where + ": negative counter");
        }
        break;
      case MetricKind::kGauge:
        if (!(sample.gauge_peak >= sample.gauge_value)) {
          return Status::Internal(where + ": peak below current value");
        }
        break;
      case MetricKind::kHistogram: {
        if (sample.bucket_counts.size() != sample.boundaries.size() + 1) {
          return Status::Internal(where + ": bucket/boundary size mismatch");
        }
        std::int64_t total = 0;
        for (std::int64_t bucket : sample.bucket_counts) {
          if (bucket < 0) return Status::Internal(where + ": negative bucket");
          total += bucket;
        }
        if (total != sample.histogram_count) {
          return Status::Internal(where +
                                  ": count disagrees with bucket sum");
        }
        if (!std::isfinite(sample.histogram_sum)) {
          return Status::Internal(where + ": non-finite sum");
        }
        break;
      }
    }
  }
  return Status::OK();
}

namespace {

struct LogMetricsState {
  Counter* counters[4] = {nullptr, nullptr, nullptr, nullptr};
};
LogMetricsState g_log_metrics;

void LogCounterTrampoline(LogLevel level, void* arg) {
  auto* state = static_cast<LogMetricsState*>(arg);
  const int index = static_cast<int>(level);
  if (index >= 0 && index < 4 && state->counters[index] != nullptr) {
    state->counters[index]->Increment();
  }
}

}  // namespace

void AttachLogMetrics(MetricsRegistry* registry) {
  // Uninstall first: SetLogCounterHook serializes with in-flight log
  // messages, so after it returns no thread reads g_log_metrics.
  SetLogCounterHook(nullptr, nullptr);
  if (registry == nullptr) return;
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarning,
                         LogLevel::kError}) {
    g_log_metrics.counters[static_cast<int>(level)] = registry->GetCounter(
        metric_names::kLogMessages, {{"level", LogLevelLabel(level)}});
  }
  SetLogCounterHook(&LogCounterTrampoline, &g_log_metrics);
}

}  // namespace fuseme
