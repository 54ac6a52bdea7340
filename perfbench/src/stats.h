// Timing and order-statistic helpers shared by the benchmark's modules.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it: the 11th-largest sample, at percentile 100·(n−10)/n.  With
/// ten samples or fewer it is the maximum, at percentile 100.
struct Tail {
  double value = 0;
  double percentile = 100;
};
inline Tail TailOf(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / n};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
