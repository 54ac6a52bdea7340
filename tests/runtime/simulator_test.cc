#include "runtime/simulator.h"

#include <gtest/gtest.h>

namespace fuseme {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 2;
  config.tasks_per_node = 4;
  config.net_bandwidth = 1000.0;       // 1000 B/s
  config.compute_bandwidth = 8000.0;   // per node -> 2000 flops/s per task
  config.task_launch_overhead = 0.0;
  config.shuffle_cpu_factor = 0.0;
  config.timeout_seconds = 1e9;
  return config;
}

StageStats MakeStage(int tasks, std::int64_t bytes, std::int64_t flops) {
  StageStats s;
  s.label = "s";
  s.num_tasks = tasks;
  s.consolidation_bytes = bytes;
  s.flops = flops;
  return s;
}

TEST(SimulatorTest, NetworkBoundStage) {
  Simulator sim(TestCluster());
  // 8 tasks on 2 nodes: 2000 B/s aggregate network.  4000 bytes -> 2s.
  // Compute: 8000 flops over 8 slots*2000 flops/s = 0.5s. Net dominates.
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 8000));
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(SimulatorTest, ComputeBoundStage) {
  Simulator sim(TestCluster());
  // 160000 flops over 8 slots * 2000 = 10s; network 4000B/2000Bps = 2s.
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 160000));
  EXPECT_DOUBLE_EQ(t, 10.0);
}

TEST(SimulatorTest, LimitedParallelismUsesFewerSlots) {
  Simulator sim(TestCluster());
  // 2 tasks fit on one node: network bandwidth of 1 node, 2 slots compute.
  double t = sim.EstimateStageSeconds(MakeStage(2, 1000, 8000));
  // net: 1000/1000 = 1s; comp: 8000/(2*2000) = 2s.
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(SimulatorTest, MoreTasksThanSlotsCostsOneBusyWindowPerWave) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.1;
  Simulator sim(config);
  // 20 tasks over 8 slots: waves of 8, 8, 4.  Each task computes
  // 16000/20 = 800 flops -> 0.4s per wave regardless of wave width.
  double t = sim.EstimateStageSeconds(MakeStage(20, 0, 16000));
  // 3 * 0.4s busy + 3 * 0.1 overhead.
  EXPECT_NEAR(t, 1.5, 1e-9);
}

TEST(SimulatorTest, MultiWaveNetworkStageScalesWithWaves) {
  Simulator sim(TestCluster());
  // 16 tasks, 2 full waves of 8, 4000 bytes each wave at 2000 B/s
  // aggregate: 2s per wave.
  double t = sim.EstimateStageSeconds(MakeStage(16, 8000, 0));
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(SimulatorTest, TailWaveUsesItsOwnNodeCount) {
  Simulator sim(TestCluster());
  // 10 tasks: one full wave of 8 (2 nodes) + a tail of 2 (1 node).
  // 1000 bytes/task.  Full wave: 8000/(2*1000) = 4s; tail: 2000/1000 = 2s.
  double t = sim.EstimateStageSeconds(MakeStage(10, 10000, 0));
  EXPECT_DOUBLE_EQ(t, 6.0);
}

TEST(SimulatorTest, ShuffleCpuFactorStretchesNetwork) {
  ClusterConfig config = TestCluster();
  config.shuffle_cpu_factor = 1.0;
  Simulator sim(config);
  double t = sim.EstimateStageSeconds(MakeStage(8, 4000, 8000));
  EXPECT_DOUBLE_EQ(t, 4.0);  // 2s network doubled
}

TEST(SimulatorTest, ClockAccumulatesAcrossStages) {
  Simulator sim(TestCluster());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 2000, 0)).ok());
  EXPECT_DOUBLE_EQ(sim.elapsed_seconds(), 3.0);
  EXPECT_EQ(sim.stages().size(), 2u);
  EXPECT_EQ(sim.total_bytes(), 6000);
}

TEST(SimulatorTest, TimeoutTrips) {
  ClusterConfig config = TestCluster();
  config.timeout_seconds = 2.5;
  Simulator sim(config);
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());  // 2s
  Status st = sim.CompleteStage(MakeStage(8, 4000, 0));        // 4s total
  EXPECT_TRUE(st.IsTimedOut());
}

TEST(SimulatorTest, CompleteStageWithoutRelaunchesEqualsEstimateBitwise) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.37;
  config.shuffle_cpu_factor = 0.3;
  Simulator sim(config);
  // Odd shapes so the estimate is not a round number: a multi-wave tail
  // with mixed network and compute terms.
  for (const StageStats& stage :
       {MakeStage(13, 7777, 123457), MakeStage(3, 1, 99991),
        MakeStage(0, 0, 0)}) {
    const double estimate = sim.EstimateStageSeconds(stage);
    const double before = sim.elapsed_seconds();
    ASSERT_TRUE(sim.CompleteStage(stage, /*relaunches=*/0).ok());
    EXPECT_EQ(sim.stages().back().elapsed_seconds, estimate);
    EXPECT_EQ(sim.elapsed_seconds(), before + estimate);
  }
}

TEST(SimulatorTest, CompleteStageAddsOneLaunchOverheadPerRelaunch) {
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.37;
  const StageStats stage = MakeStage(13, 7777, 123457);
  for (std::int64_t relaunches : {1, 2, 6}) {
    Simulator sim(config);
    const double estimate = sim.EstimateStageSeconds(stage);
    ASSERT_TRUE(sim.CompleteStage(stage, relaunches).ok());
    EXPECT_EQ(sim.stages().back().elapsed_seconds,
              estimate + static_cast<double>(relaunches) * 0.37)
        << relaunches << " relaunches";
    EXPECT_EQ(sim.elapsed_seconds(), sim.stages().back().elapsed_seconds);
  }
}

TEST(SimulatorTest, RelaunchOverheadCanTripTheDeadline) {
  // A 2.5 s stage (2 s busy plus one 0.5 s launch) fits a 2.9 s horizon;
  // the same stage after two degradation re-launches (3.5 s) does not.
  ClusterConfig config = TestCluster();
  config.task_launch_overhead = 0.5;
  config.timeout_seconds = 2.9;
  Simulator clean(config);
  ASSERT_DOUBLE_EQ(clean.EstimateStageSeconds(MakeStage(8, 4000, 0)), 2.5);
  EXPECT_TRUE(clean.CompleteStage(MakeStage(8, 4000, 0)).ok());
  Simulator relaunched(config);
  EXPECT_TRUE(
      relaunched.CompleteStage(MakeStage(8, 4000, 0), /*relaunches=*/2)
          .IsTimedOut());
}

TEST(SimulatorTest, EmptyStageIsFree) {
  Simulator sim(TestCluster());
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(0, 0, 0)), 0.0);
}

TEST(SimulatorTest, ResetClearsHistory) {
  Simulator sim(TestCluster());
  ASSERT_TRUE(sim.CompleteStage(MakeStage(8, 4000, 0)).ok());
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.elapsed_seconds(), 0.0);
  EXPECT_TRUE(sim.stages().empty());
}

TEST(SimulatorTest, DefaultOverlapFactorKeepsMaxModel) {
  // overlap_factor defaults to 1: a wave costs max(net, comp) exactly, so
  // existing predictions (and analytic-mode elapsed_seconds) are
  // bitwise-unchanged by the overlap extension.
  ClusterConfig config = TestCluster();
  ASSERT_DOUBLE_EQ(config.overlap_factor, 1.0);
  Simulator sim(config);
  // net: 4000/2000 = 2s; comp: 8000/(8*2000) = 0.5s.
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.0);
}

TEST(SimulatorTest, ZeroOverlapFactorSerializesTransferAndCompute) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 0.0;
  Simulator sim(config);
  // No overlap: the wave pays net + comp = 2.0 + 0.5.
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.5);
}

TEST(SimulatorTest, PartialOverlapHidesFractionOfShorterPhase) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 0.6;
  Simulator sim(config);
  // max(2.0, 0.5) + (1 - 0.6) * min(2.0, 0.5) = 2.0 + 0.2.
  EXPECT_NEAR(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.2, 1e-12);
}

TEST(SimulatorTest, OverlapFactorOutsideRangeIsClamped) {
  ClusterConfig config = TestCluster();
  config.overlap_factor = 7.0;  // validation rejects this; simulator clamps
  Simulator sim(config);
  EXPECT_DOUBLE_EQ(sim.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.0);
  config.overlap_factor = -3.0;
  Simulator sim2(config);
  EXPECT_DOUBLE_EQ(sim2.EstimateStageSeconds(MakeStage(8, 4000, 8000)), 2.5);
}

TEST(SimulatorTest, MoreNodesIsFasterForNetworkBoundStage) {
  // Reproduces the shape of Fig. 12(d,h): elapsed decreases with nodes.
  double prev = 1e18;
  for (int nodes : {2, 4, 8}) {
    ClusterConfig config = TestCluster();
    config.num_nodes = nodes;
    Simulator sim(config);
    double t = sim.EstimateStageSeconds(
        MakeStage(/*tasks=*/nodes * 4, 80000, 160000));
    EXPECT_LT(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace fuseme
