#include "system_info.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace fuseme;  // NOLINT

namespace {

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// The processor brand string (CPUID leaves 0x80000002-4), read without
/// touching the filesystem.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

/// FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string InputEntry(const Query& q, NodeId id, std::int64_t rows,
                       std::int64_t cols, std::int64_t nnz,
                       std::uint64_t checksum) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"input\": \"%s\", \"shape\": [%lld, %lld], \"nnz\": %lld, "
                "\"checksum\": \"%016llx\"}",
                Escape(q.dag.node(id).name).c_str(),
                static_cast<long long>(rows), static_cast<long long>(cols),
                static_cast<long long>(nnz),
                static_cast<unsigned long long>(checksum));
  return buf;
}

}  // namespace

std::string RunContext(const Workload& w, std::uint64_t seed) {
  std::string inputs;
  const auto add = [&](const std::string& entry) {
    inputs += (inputs.empty() ? "" : ", ") + entry;
  };
  const std::vector<Query>* sets[] = {&w.queries, &w.reduced};
  for (const std::vector<Query>* set : sets) {
    for (const Query& q : *set) {
      for (const auto& [id, m] : q.dense_inputs) {
        Fnv1a h;
        h.Add(m.data(), sizeof(double) * static_cast<std::size_t>(m.size()));
        add(InputEntry(q, id, m.rows(), m.cols(), m.CountNonZeros(),
                       h.value()));
      }
      for (const auto& [id, m] : q.sparse_inputs) {
        Fnv1a h;
        h.Add(m.row_ptr());
        h.Add(m.col_idx());
        h.Add(m.values());
        add(InputEntry(q, id, m.rows(), m.cols(), m.nnz(), h.value()));
      }
    }
  }
  char head[512];
  std::snprintf(
      head, sizeof(head),
      "{\"workload\": \"%s\", \"seed\": %llu, \"queries\": %zu, "
      "\"nproc\": %d, \"cpu_model\": \"%s\", \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", ",
      w.name.c_str(), static_cast<unsigned long long>(seed),
      w.queries.size(), OnlineCpus(), Escape(CpuModel()).c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      Escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
  return std::string(head) + "\"inputs\": [" + inputs + "]}";
}

void WarnIfUnoptimized() {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "WARNING: perfbench was built without optimization (build "
               "type %s); its timings are not comparable\n",
               PERFBENCH_BUILD_TYPE);
#endif
}

}  // namespace perfbench
