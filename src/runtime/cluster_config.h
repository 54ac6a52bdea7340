// ClusterConfig: the modeled execution environment (paper §6.1).
//
// Defaults mirror the paper's testbed: 8 worker nodes, 12 tasks per node,
// 10 GB memory budget per task (theta_t), 1 Gbps Ethernet per node, and
// 546 GFLOPS compute per node, with 1000×1000 blocks and a 12-hour timeout.

#ifndef FUSEME_RUNTIME_CLUSTER_CONFIG_H_
#define FUSEME_RUNTIME_CLUSTER_CONFIG_H_

#include <cstdint>

namespace fuseme {

struct ClusterConfig {
  /// Number of worker nodes (N).
  int num_nodes = 8;
  /// Concurrent tasks per node (Tc).
  int tasks_per_node = 12;
  /// Memory budget per task in bytes (theta_t).
  std::int64_t task_memory_budget = 10LL * 1024 * 1024 * 1024;
  /// Peak network bandwidth per node in bytes/sec (B̂n). 1 Gbps default.
  double net_bandwidth = 1e9 / 8.0;
  /// Peak compute bandwidth per node in FLOP/sec (B̂c). 546 GFLOPS default.
  double compute_bandwidth = 546e9;
  /// Square block (tile) side length.
  std::int64_t block_size = 1000;
  /// Experiment horizon; exceeding it reports TimedOut ("T.O." cells).
  double timeout_seconds = 12.0 * 3600.0;
  /// Fixed per-stage-wave overhead in seconds: Spark job/stage submission,
  /// task dispatch, barrier, and result collection.  Applied once per
  /// scheduling wave; measured Spark deployments sit around a second.
  double task_launch_overhead = 1.0;
  /// Extra CPU time charged per unit of network time: models Spark's
  /// shuffle machinery occupying cores while data moves (paper §6.2,
  /// "Apache Spark tends to occupy CPU cores ... for data shuffling").
  double shuffle_cpu_factor = 1.0;
  /// Comm/compute overlap factor f of the simulator's per-wave time model:
  /// wave = max(comm, comp) + (1 - f) * min(comm, comp).  1.0 (default)
  /// keeps the paper's ideal-overlap max() model; 0.0 models a fully
  /// serialized fetch-then-compute stage.  A modeling knob only — it never
  /// changes computed results (DESIGN.md section 14).
  double overlap_factor = 1.0;
  /// Local execution parallelism of the real-mode physical operators:
  /// total number of threads, calling thread included.  0 = the process
  /// default (FUSEME_THREADS env or hardware_concurrency); 1 = serial.
  /// Results and StageStats are identical for every value — see
  /// DESIGN.md "Execution runtime".
  int local_threads = 0;

  /// Total task slots in the cluster (T).
  int total_tasks() const { return num_nodes * tasks_per_node; }
  /// Compute bandwidth of one task slot.
  double per_task_compute() const {
    return compute_bandwidth / tasks_per_node;
  }
};

}  // namespace fuseme

#endif  // FUSEME_RUNTIME_CLUSTER_CONFIG_H_
