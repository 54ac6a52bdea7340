#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace perfbench {

using fuseme::TraceSpan;

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Spans of `category` (and `name`, when non-empty) as intervals sorted by
/// start.
std::vector<Interval> Select(const std::vector<TraceSpan>& spans,
                             const char* category, const char* name = "") {
  std::vector<Interval> out;
  for (const TraceSpan& s : spans) {
    if (s.category == category && (*name == '\0' || s.name == name)) {
      out.emplace_back(s.begin_us, s.end_us);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Intervals of `children` that start inside [parent.first, parent.second).
std::vector<Interval> Within(const std::vector<Interval>& children,
                             const Interval& parent) {
  auto it = std::lower_bound(children.begin(), children.end(),
                             Interval{parent.first, INT64_MIN});
  std::vector<Interval> out;
  for (; it != children.end() && it->first < parent.second; ++it) {
    out.push_back(*it);
  }
  return out;
}

/// Length of the union of sorted `intervals`, clipped to `parent`.
std::int64_t CoveredUs(const std::vector<Interval>& intervals,
                       const Interval& parent) {
  std::int64_t covered = 0, reach = parent.first;
  for (const auto& [b, e] : intervals) {
    const std::int64_t begin = std::max(b, reach);
    const std::int64_t end = std::min(e, parent.second);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

double Seconds(std::int64_t us) { return static_cast<double>(us) / 1e6; }

}  // namespace

std::vector<ExecuteLayers> DeriveExecuteLayers(
    const std::vector<TraceSpan>& spans) {
  const std::vector<Interval> executes = Select(spans, "bench", "execute");
  const std::vector<Interval> stages = Select(spans, "stage");
  const std::vector<Interval> items = Select(spans, "work-item");
  std::vector<ExecuteLayers> out;
  for (const Interval& execute : executes) {
    ExecuteLayers layers;
    const std::vector<Interval> inner = Within(stages, execute);
    layers.execute_self_s =
        Seconds(execute.second - execute.first - CoveredUs(inner, execute));
    for (const Interval& stage : inner) {
      const std::int64_t length = stage.second - stage.first;
      layers.stage_s += Seconds(length);
      layers.stage_self_s +=
          Seconds(length - CoveredUs(Within(items, stage), stage));
    }
    out.push_back(layers);
  }
  return out;
}

}  // namespace perfbench
