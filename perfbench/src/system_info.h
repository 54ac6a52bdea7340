// The run context recorded next to every result: machine, build, seed and
// a fingerprint of every generated input.

#ifndef PERFBENCH_SYSTEM_INFO_H_
#define PERFBENCH_SYSTEM_INFO_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// One-line JSON object: nproc, CPU model, L2/L3 sizes, compiler, build
/// type, seed, and per input its shape, nnz and an FNV-1a checksum of its
/// stored values.
std::string RunContext(const Workload& w, std::uint64_t seed);

/// Prints a warning to stderr when the benchmark was built without
/// optimization; timings from such a build are not comparable.
void WarnIfUnoptimized();

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_INFO_H_
