// Predicted-vs-actual stage cost telemetry (DESIGN.md section 10).
//
// The engine's plan choice rides entirely on the cost model (paper §3.3);
// this layer records what the model *predicted* for each chosen stage —
// NetEst / AggBytes / ComEst / MemEst at the chosen (P,Q,R) — next to what
// the runtime actually charged, and distills per-dimension ratios so a
// mis-calibrated model is visible (and testable) instead of silently
// steering the optimizer.

#ifndef FUSEME_TELEMETRY_PREDICTION_H_
#define FUSEME_TELEMETRY_PREDICTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "runtime/stage.h"

namespace fuseme {

/// The cost model's view of one stage at operator-selection time.
struct StagePrediction {
  /// False when no prediction was recorded (e.g. the stage failed before
  /// an operator was chosen).
  bool present = false;
  std::string operator_kind;  // "CFO", "BFO", "RFO", "cpmm"
  /// Chosen (P,Q,R) for cuboid-based operators; (1,1,1) otherwise.
  Cuboid cuboid;
  int num_tasks = 0;
  double net_bytes = 0;     // NetEst: consolidation traffic
  double agg_bytes = 0;     // AggBytes: R>1 partial-aggregation shuffle
  double flops = 0;         // ComEst
  double mem_per_task = 0;  // MemEst
  double cost_seconds = 0;  // Eq. 2 modeled seconds
};

/// One stage's full telemetry: the prediction, the realized accounting
/// (measured charges in real mode, engine-adjusted closed forms in
/// analytic mode), and how the stage actually executed.
struct StageTelemetry {
  std::string label;
  StagePrediction predicted;
  StageStats actual;
  double wall_seconds = 0;  // host wall clock for the stage
  int threads = 1;          // work-item parallelism used
  /// OOM degradation rungs the stage climbed before it completed (or
  /// before the ladder gave up); 0 on clean runs.
  std::int64_t degradations = 0;
};

/// Per-dimension prediction error of one stage, as actual/predicted
/// ratios (1.0 = perfectly calibrated).  Dimensions where both sides are
/// below the noise floors (kRatioFloorBytes / kRatioFloorFlops) report
/// exactly 1.0 so empty shuffles don't produce 0/0 artifacts.
struct StagePredictionError {
  std::string label;
  double net_ratio = 1.0;
  double agg_ratio = 1.0;
  double flops_ratio = 1.0;
  double mem_ratio = 1.0;

  /// Worst |log2(ratio)| over the four dimensions.
  double MaxAbsLog2() const;
};

inline constexpr double kRatioFloorBytes = 4096;
inline constexpr double kRatioFloorFlops = 4096;

/// Per-plan prediction-error report over the stages that carry a
/// prediction (stages without one are skipped).
struct PredictionReport {
  std::vector<StagePredictionError> stages;
  /// Worst |log2(ratio)| across all stages and dimensions; 0 when every
  /// prediction was exact (or no stage carried one).
  double max_abs_log2 = 0;

  /// True when every ratio lies within [1/factor, factor].
  bool WithinFactor(double factor) const;
};

PredictionReport BuildPredictionReport(
    const std::vector<StageTelemetry>& stages);

/// Human-readable side-by-side table: one block per stage with predicted
/// value, actual value, and ratio for net / agg / flops / mem (the
/// `examples/explain` output).
std::string FormatPredictionTable(const std::vector<StageTelemetry>& stages);

}  // namespace fuseme

#endif  // FUSEME_TELEMETRY_PREDICTION_H_
