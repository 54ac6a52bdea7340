// Per-layer self times derived from the nesting of trace spans.
//
// The benchmark wraps each Execute in a "bench"/"execute" span; inside it
// the engine records one "stage" span per stage on the same thread, and
// the operators record "work-item" spans on the pool threads.  A layer's
// self time is its span's duration minus the part of that interval its
// child spans cover (their union, so parallel children count once).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "telemetry/tracer.h"

namespace perfbench {

struct ExecuteLayers {
  double execute_self_s = 0;  // execute span minus its stage spans
  double stage_s = 0;         // sum of stage spans
  double stage_self_s = 0;    // stage spans minus their work-item spans
};

/// One entry per "bench"/"execute" span, in start order.
std::vector<ExecuteLayers> DeriveExecuteLayers(
    const std::vector<fuseme::TraceSpan>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
