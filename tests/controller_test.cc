// Tests for the controller: expected-cost optimizer (§5.1), cluster sizer,
// TTL optimizer (Appendix B), analyzer aggregation (§5.2), and the
// end-to-end reconfiguration decision flow.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/cloudsim/latency.h"
#include "src/controller/analyzer.h"
#include "src/controller/cluster_sizer.h"
#include "src/controller/controller.h"
#include "src/controller/optimizer.h"
#include "src/controller/ttl_optimizer.h"
#include "src/trace/request_source.h"
#include "src/trace/synthetic.h"
#include "tests/feed_columns.h"

namespace macaron {
namespace {

constexpr double kGB9 = 1e9;

OptimizerInputs MakeInputs() {
  OptimizerInputs in;
  // Three capacities: 1, 10, 20 GB. MRC/BMC fall with capacity.
  in.mrc = Curve({1 * kGB9, 10 * kGB9, 20 * kGB9}, {0.5, 0.1, 0.05});
  in.bmc = Curve({1 * kGB9, 10 * kGB9, 20 * kGB9}, {50 * kGB9, 10 * kGB9, 5 * kGB9});
  in.window_reads = 1000;
  in.window_writes = 100;
  in.objects_per_block = 40;
  in.window = 15 * kMinute;
  return in;
}

TEST(OptimizerTest, CostCurveHasAllThreeTerms) {
  const OptimizerInputs in = MakeInputs();
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const Curve c = ExpectedCostCurve(in, p);
  // At 1 GB: capacity = 1GB * 0.023 * (15min/month), egress = 50GB * 0.09,
  // op = 0.005/1000 * (100 + 1000*0.5)/40.
  const double cap = 1.0 * 0.023 * DurationMonths(15 * kMinute);
  const double egress = 50 * 0.09;
  const double op = 0.005 / 1000.0 * (100 + 500) / 40.0;
  EXPECT_NEAR(c.y(0), cap + egress + op, 1e-9);
}

TEST(OptimizerTest, HighEgressPriceFavorsLargeCache) {
  const OptimizerInputs in = MakeInputs();
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const CapacityDecision d = OptimizeCapacity(in, p);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(20 * kGB9));
}

TEST(OptimizerTest, ZeroEgressPriceFavorsSmallCache) {
  const OptimizerInputs in = MakeInputs();
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud).WithEgressScale(0.0);
  const CapacityDecision d = OptimizeCapacity(in, p);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(1 * kGB9));
}

TEST(OptimizerTest, DramPricingShrinksOptimalCapacity) {
  // The ECPC effect: the same curves priced as DRAM pick a smaller cache.
  OptimizerInputs in = MakeInputs();
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  in.pricing = CapacityPricing::kObjectStorage;
  const CapacityDecision object_storage = OptimizeCapacity(in, p);
  in.pricing = CapacityPricing::kDram;
  const CapacityDecision dram = OptimizeCapacity(in, p);
  EXPECT_LE(dram.capacity_bytes, object_storage.capacity_bytes);
}

TEST(OptimizerTest, GarbageAddsCapacityCost) {
  OptimizerInputs in = MakeInputs();
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const double before = ExpectedCostCurve(in, p).y(0);
  in.garbage_bytes = static_cast<uint64_t>(5 * kGB9);
  const double after = ExpectedCostCurve(in, p).y(0);
  EXPECT_GT(after, before);
}

TEST(OptimizerTest, PackingDividesOpCost) {
  OptimizerInputs in = MakeInputs();
  in.bmc = in.bmc.Scaled(0.0);  // isolate the op term
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  in.objects_per_block = 1.0;
  const double unpacked = ExpectedCostCurve(in, p).y(0);
  in.objects_per_block = 40.0;
  const double packed = ExpectedCostCurve(in, p).y(0);
  // Only op cost differs; capacity is shared.
  const double cap = 1.0 * 0.023 * DurationMonths(15 * kMinute);
  EXPECT_NEAR((unpacked - cap) / (packed - cap), 40.0, 1e-6);
}

// --- Cluster sizer ---

TEST(ClusterSizerTest, PicksMinimalCapacityMeetingTarget) {
  const Curve alc({1e9, 2e9, 3e9, 4e9}, {100.0, 50.0, 20.0, 19.0});
  const ClusterDecision d = SizeCluster(alc, 25.0, static_cast<uint64_t>(1e9), 100);
  EXPECT_TRUE(d.met_target);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(3e9));
  EXPECT_EQ(d.nodes, 3u);
}

TEST(ClusterSizerTest, KneeWhenTargetUnreachable) {
  // Sharp elbow at the second point, then flat.
  const Curve alc({1e9, 2e9, 3e9, 4e9}, {100.0, 40.0, 39.0, 38.0});
  const ClusterDecision d = SizeCluster(alc, 10.0, static_cast<uint64_t>(1e9), 100);
  EXPECT_FALSE(d.met_target);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(2e9));
}

TEST(ClusterSizerTest, FlatCurveScalesToMinimum) {
  const Curve alc({1e9, 2e9, 3e9}, {100.0, 99.0, 98.0});
  const ClusterDecision d = SizeCluster(alc, 10.0, static_cast<uint64_t>(1e9), 100);
  EXPECT_FALSE(d.met_target);
  EXPECT_EQ(d.nodes, 1u);
}

TEST(ClusterSizerTest, NodeCountRoundsUpAndCaps) {
  const Curve alc({25e8}, {5.0});
  const ClusterDecision d = SizeCluster(alc, 10.0, static_cast<uint64_t>(1e9), 2);
  EXPECT_EQ(d.nodes, 2u);  // ceil(2.5) = 3, capped at 2
  EXPECT_TRUE(d.clamped);
}

TEST(ClusterSizerTest, MaxNodesClampRecomputesCapacityAndLatency) {
  // The ALC wants 4 GB (the only point under target), but only 2 nodes of
  // 1 GB fit: the decision must describe the 2 GB cluster that will actually
  // deploy — capacity from the clamped node count, latency re-read off the
  // ALC at that capacity — not the unclamped 4 GB choice.
  const Curve alc({1e9, 2e9, 3e9, 4e9}, {100.0, 50.0, 20.0, 19.0});
  const ClusterDecision d = SizeCluster(alc, 19.5, static_cast<uint64_t>(1e9), 2);
  EXPECT_TRUE(d.clamped);
  EXPECT_EQ(d.nodes, 2u);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(2e9));
  EXPECT_NEAR(d.predicted_latency_ms, 50.0, 1e-9);
}

TEST(ClusterSizerTest, UnclampedDecisionsLeaveFlagClear) {
  const Curve alc({1e9, 2e9, 3e9, 4e9}, {100.0, 50.0, 20.0, 19.0});
  const ClusterDecision d = SizeCluster(alc, 25.0, static_cast<uint64_t>(1e9), 100);
  EXPECT_FALSE(d.clamped);
  // The 1-node floor (an upward adjustment) is not a clamp.
  const Curve flat({5e8}, {5.0});
  const ClusterDecision f = SizeCluster(flat, 10.0, static_cast<uint64_t>(1e9), 100);
  EXPECT_EQ(f.nodes, 1u);
  EXPECT_FALSE(f.clamped);
}

TEST(ClusterSizerTest, RoundNodesToShardsInvariants) {
  // shards <= 1: plain clamp to [1, max_nodes].
  EXPECT_EQ(RoundNodesToShards(0, 1, 100), 1u);
  EXPECT_EQ(RoundNodesToShards(7, 1, 100), 7u);
  EXPECT_EQ(RoundNodesToShards(200, 1, 100), 100u);
  // shards > 1: round up to a multiple of shards...
  EXPECT_EQ(RoundNodesToShards(1, 4, 100), 4u);
  EXPECT_EQ(RoundNodesToShards(4, 4, 100), 4u);
  EXPECT_EQ(RoundNodesToShards(5, 4, 100), 8u);
  // ...capped at the largest multiple of shards under max_nodes...
  EXPECT_EQ(RoundNodesToShards(99, 4, 10), 8u);
  // ...but never below one node per shard, even when max_nodes < shards.
  EXPECT_EQ(RoundNodesToShards(1, 8, 4), 8u);
}

TEST(ClusterSizerTest, ShardedSizingRoundsFleetAndRecomputes) {
  // Unsharded choice is 3 nodes (3 GB); 4 shards force a 4-node fleet, and
  // the decision must describe the rounded fleet's capacity and latency.
  const Curve alc({1e9, 2e9, 3e9, 4e9}, {100.0, 50.0, 20.0, 19.0});
  const ClusterDecision base = SizeCluster(alc, 25.0, static_cast<uint64_t>(1e9), 100);
  ASSERT_EQ(base.nodes, 3u);
  const ClusterDecision d =
      SizeCluster(alc, 25.0, static_cast<uint64_t>(1e9), 100, /*shards=*/4);
  EXPECT_EQ(d.nodes, 4u);
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(4e9));
  EXPECT_NEAR(d.predicted_latency_ms, 19.0, 1e-9);
  // A choice already aligned to the shard count is untouched.
  const ClusterDecision aligned =
      SizeCluster(alc, 25.0, static_cast<uint64_t>(1e9), 100, /*shards=*/3);
  EXPECT_EQ(aligned.nodes, 3u);
  EXPECT_EQ(aligned.capacity_bytes, base.capacity_bytes);
}

// --- TTL optimizer ---

TEST(TtlOptimizerTest, BalancesEgressAgainstCapacity) {
  TtlOptimizerInputs in;
  const double h1 = static_cast<double>(kHour);
  in.mrc = Curve({h1, 24 * h1, 168 * h1}, {0.5, 0.1, 0.08});
  in.bmc = Curve({h1, 24 * h1, 168 * h1}, {50 * kGB9, 10 * kGB9, 8 * kGB9});
  in.capacity = Curve({h1, 24 * h1, 168 * h1}, {1 * kGB9, 10 * kGB9, 60 * kGB9});
  in.window_reads = 1000;
  in.window_writes = 0;
  in.objects_per_block = 40;
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const TtlDecision d = OptimizeTtl(in, p);
  // Egress dominates at cross-cloud prices: the longest TTL wins.
  EXPECT_EQ(d.ttl, 168 * kHour);
  // With free egress the shortest TTL wins.
  const TtlDecision d0 = OptimizeTtl(in, p.WithEgressScale(0.0));
  EXPECT_EQ(d0.ttl, kHour);
}

// --- Analyzer ---

TEST(AnalyzerTest, ReportsAggregatedCurvesAndCounts) {
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 1.0;
  cfg.num_minicaches = 8;
  cfg.min_capacity_bytes = 1000;
  cfg.max_capacity_bytes = 100000;
  WorkloadAnalyzer analyzer(cfg, nullptr);
  std::vector<Request> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back({i, static_cast<ObjectId>(i % 10), 500, Op::kGet});
  }
  reqs.push_back({100, 99, 500, Op::kPut});
  FeedColumns(analyzer, reqs);
  const AnalyzerReport r = analyzer.EndWindow(15 * kMinute);
  EXPECT_EQ(r.window_requests, 101u);
  EXPECT_NEAR(r.expected_window_reads, 100.0, 1e-9);
  EXPECT_NEAR(r.expected_window_writes, 1.0, 1e-9);
  EXPECT_NEAR(r.mean_object_bytes, 500.0, 1e-9);
  EXPECT_FALSE(r.aggregated_mrc.empty());
  EXPECT_GT(r.lambda_gb_seconds, 0.0);
}

TEST(AnalyzerTest, MeanObjectBytesExcludesDeletes) {
  // Deletes carry no payload: folding their size-0 records into the mean
  // used to deflate mean_object_bytes (and with it the packing op-cost
  // divisor). One window, GET 500 + PUT 1000 + DELETE: mean is 750, not 500.
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 1.0;
  cfg.num_minicaches = 4;
  cfg.min_capacity_bytes = 1000;
  cfg.max_capacity_bytes = 100000;
  WorkloadAnalyzer analyzer(cfg, nullptr);
  FeedColumns(analyzer, {{0, 1, 500, Op::kGet}, {1, 2, 1000, Op::kPut}, {2, 1, 0, Op::kDelete}});
  const AnalyzerReport r = analyzer.EndWindow(15 * kMinute);
  EXPECT_EQ(r.window_requests, 2u);  // window_requests = reads + writes
  EXPECT_NEAR(r.mean_object_bytes, 750.0, 1e-9);
}

TEST(AnalyzerTest, DecayedAverageTracksShift) {
  DecayedScalarAverage avg(0.2);
  avg.Add(100.0, 1.0, 0.0);
  avg.Add(100.0, 1.0, 1.0);
  EXPECT_NEAR(avg.Average(), 100.0, 1e-9);
  avg.Add(0.0, 1.0, 1.0);
  avg.Add(0.0, 1.0, 1.0);
  EXPECT_LT(avg.Average(), 10.0);
}

TEST(AnalyzerTest, TtlCurvesWhenEnabled) {
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 1.0;
  cfg.num_minicaches = 4;
  cfg.min_capacity_bytes = 1000;
  cfg.max_capacity_bytes = 10000;
  cfg.enable_ttl = true;
  cfg.max_ttl = 2 * kDay;
  WorkloadAnalyzer analyzer(cfg, nullptr);
  FeedColumns(analyzer, {{0, 1, 100, Op::kGet}});
  const AnalyzerReport r = analyzer.EndWindow(15 * kMinute);
  ASSERT_TRUE(r.aggregated_ttl_mrc.has_value());
  ASSERT_TRUE(r.aggregated_ttl_capacity.has_value());
  EXPECT_EQ(r.aggregated_ttl_mrc->xs(), r.aggregated_ttl_capacity->xs());
}

TEST(AnalyzerTest, EmptyWindowYieldsFiniteCurvesAndOptimizerSafety) {
  // A window with no requests at all must not leak NaN/inf into the report
  // or into OptimizeCapacity (zero sampled GETs means zero-weight curve
  // aggregation and a division-by-zero hazard in the estimators).
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 0.05;
  cfg.num_minicaches = 8;
  cfg.min_capacity_bytes = 1000;
  cfg.max_capacity_bytes = 100000;
  cfg.enable_ttl = true;
  cfg.max_ttl = 2 * kDay;
  WorkloadAnalyzer analyzer(cfg, nullptr);
  const AnalyzerReport r = analyzer.EndWindow(15 * kMinute);
  EXPECT_EQ(r.window_requests, 0u);
  ASSERT_FALSE(r.aggregated_mrc.empty());
  for (size_t i = 0; i < r.aggregated_mrc.size(); ++i) {
    EXPECT_EQ(r.aggregated_mrc.y(i), 0.0) << i;
    EXPECT_EQ(r.aggregated_bmc.y(i), 0.0) << i;
  }
  EXPECT_EQ(r.expected_window_reads, 0.0);
  EXPECT_EQ(r.mean_object_bytes, 0.0);
  // Feeding the zeroed curves to the optimizer must produce a finite
  // decision (the smallest capacity: nothing to cache).
  OptimizerInputs in;
  in.mrc = r.aggregated_mrc;
  in.bmc = r.aggregated_bmc;
  in.window_reads = r.expected_window_reads;
  in.window_writes = r.expected_window_writes;
  in.objects_per_block = 40;
  in.window = 15 * kMinute;
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const CapacityDecision d = OptimizeCapacity(in, p);
  EXPECT_TRUE(std::isfinite(d.expected_cost));
  EXPECT_EQ(d.capacity_bytes, static_cast<uint64_t>(r.aggregated_mrc.x(0)));
}

TEST(AnalyzerTest, EmptyWindowAfterTrafficKeepsAggregates) {
  // An idle window between busy ones enters with zero weight: the decayed
  // aggregates must carry the earlier knowledge, not divide by zero.
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 1.0;
  cfg.num_minicaches = 8;
  cfg.min_capacity_bytes = 1000;
  cfg.max_capacity_bytes = 100000;
  WorkloadAnalyzer analyzer(cfg, nullptr);
  std::vector<Request> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back({i, static_cast<ObjectId>(i % 10), 500, Op::kGet});
  }
  FeedColumns(analyzer, reqs);
  const AnalyzerReport busy = analyzer.EndWindow(15 * kMinute);
  const AnalyzerReport idle = analyzer.EndWindow(15 * kMinute);
  EXPECT_EQ(idle.window_requests, 0u);
  ASSERT_EQ(idle.aggregated_mrc.size(), busy.aggregated_mrc.size());
  for (size_t i = 0; i < idle.aggregated_mrc.size(); ++i) {
    ASSERT_FALSE(std::isnan(idle.aggregated_mrc.y(i))) << i;
    // Zero-weight window: the aggregate is unchanged (up to the rounding of
    // decaying numerator and denominator by the same factor).
    EXPECT_NEAR(idle.aggregated_mrc.y(i), busy.aggregated_mrc.y(i), 1e-12) << i;
  }
  EXPECT_LT(idle.expected_window_reads, busy.expected_window_reads);
}

// --- Controller decisions ---

// Feeds `reqs` to the controller as one chunk, the way the engines do.
void Observe(MacaronController& ctl, const std::vector<Request>& reqs) {
  const ReplayBatch chunk = ToChunk(reqs);
  ctl.ObserveColumns(chunk, 0, chunk.size());
}

// `count` GETs of 10 KB objects cycling over `objects` ids, from `start`
// one millisecond apart.
std::vector<Request> CyclicGets(SimTime start, int count, int objects) {
  std::vector<Request> reqs;
  for (int i = 0; i < count; ++i) {
    reqs.push_back({start + i, static_cast<ObjectId>(i % objects), 10'000, Op::kGet});
  }
  return reqs;
}

ControllerConfig BaseControllerConfig() {
  ControllerConfig cc;
  cc.window = 15 * kMinute;
  cc.observation = kHour;
  cc.analyzer.sampling_ratio = 1.0;
  cc.analyzer.num_minicaches = 8;
  cc.analyzer.min_capacity_bytes = 100'000;
  cc.analyzer.max_capacity_bytes = 10'000'000;
  return cc;
}

TEST(ControllerTest, NoOptimizationDuringObservation) {
  MacaronController ctl(BaseControllerConfig(),
                        PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  Observe(ctl, {{0, 1, 1000, Op::kGet}});
  const ReconfigDecision d = ctl.Reconfigure(15 * kMinute, 0);
  EXPECT_FALSE(d.optimized);
}

TEST(ControllerTest, OptimizesAfterObservation) {
  MacaronController ctl(BaseControllerConfig(),
                        PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  for (int w = 0; w < 5; ++w) {
    Observe(ctl, CyclicGets(w * 15 * kMinute, 200, 50));
    ctl.Reconfigure((w + 1) * 15 * kMinute, 0);
  }
  const ReconfigDecision d = ctl.Reconfigure(2 * kHour, 0);
  EXPECT_TRUE(d.optimized);
  EXPECT_GT(d.osc_capacity, 0u);
  EXPECT_FALSE(d.cost_curve.empty());
  EXPECT_GT(d.reconfig_seconds, 0.0);
}

TEST(ControllerTest, RepetitiveWorkloadGetsCacheCoveringWorkingSet) {
  // 50 objects x 10 KB = 500 KB working set, accessed repeatedly, with
  // cross-cloud egress: the decision must cover the working set.
  MacaronController ctl(BaseControllerConfig(),
                        PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  for (int w = 0; w < 8; ++w) {
    Observe(ctl, CyclicGets(w * 15 * kMinute, 500, 50));
    ctl.Reconfigure((w + 1) * 15 * kMinute, 0);
  }
  const ReconfigDecision d = ctl.Reconfigure(3 * kHour, 0);
  ASSERT_TRUE(d.optimized);
  EXPECT_GE(d.osc_capacity, 500'000u);
}

TEST(ControllerTest, ObjectsPerBlockRespectsBothLimits) {
  ControllerConfig cc = BaseControllerConfig();
  cc.packing_block_bytes = 16'000'000;
  cc.packing_max_objects = 40;
  MacaronController ctl(cc, PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  EXPECT_DOUBLE_EQ(ctl.ObjectsPerBlock(100'000), 40.0);      // object-count bound
  EXPECT_DOUBLE_EQ(ctl.ObjectsPerBlock(4'000'000), 4.0);     // byte bound
  EXPECT_DOUBLE_EQ(ctl.ObjectsPerBlock(32'000'000), 1.0);    // floor
}

TEST(ControllerTest, PackingDisabledMeansOneObjectPerBlock) {
  ControllerConfig cc = BaseControllerConfig();
  cc.packing_enabled = false;
  MacaronController ctl(cc, PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  EXPECT_DOUBLE_EQ(ctl.ObjectsPerBlock(1000), 1.0);
}

TEST(ControllerTest, TtlModeProducesTtlDecision) {
  ControllerConfig cc = BaseControllerConfig();
  cc.mode = OptimizationMode::kTtl;
  cc.analyzer.enable_ttl = true;
  cc.analyzer.max_ttl = 2 * kDay;
  MacaronController ctl(cc, PriceBook::Aws(DeploymentScenario::kCrossCloud), nullptr);
  for (int w = 0; w < 6; ++w) {
    Observe(ctl, CyclicGets(w * 15 * kMinute, 100, 20));
    ctl.Reconfigure((w + 1) * 15 * kMinute, 0);
  }
  const ReconfigDecision d = ctl.Reconfigure(2 * kHour, 0);
  ASSERT_TRUE(d.optimized);
  EXPECT_GT(d.ttl, 0);
}

TEST(ControllerTest, ClusterDecisionWithAlc) {
  ControllerConfig cc = BaseControllerConfig();
  cc.enable_cluster = true;
  cc.analyzer.enable_alc = true;
  cc.cluster_latency_target_ms = 25.0;
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 5);
  MacaronController ctl(cc, PriceBook::Aws(DeploymentScenario::kCrossCloud), &gen);
  for (int w = 0; w < 6; ++w) {
    Observe(ctl, CyclicGets(w * 15 * kMinute, 400, 30));
    ctl.Reconfigure((w + 1) * 15 * kMinute, 0);
  }
  const ReconfigDecision d = ctl.Reconfigure(2 * kHour, 0);
  ASSERT_TRUE(d.optimized);
  EXPECT_GE(d.cluster_nodes, 1u);
  ASSERT_TRUE(d.latest_alc.has_value());
}

TEST(ControllerTest, ReconfigTimeLongerWhenClusterChanges) {
  // §7.7: ~7 s metadata-only vs ~minutes with cluster scaling.
  ControllerConfig cc = BaseControllerConfig();
  cc.enable_cluster = true;
  cc.analyzer.enable_alc = true;
  cc.cluster_latency_target_ms = 25.0;
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 6);
  MacaronController ctl(cc, PriceBook::Aws(DeploymentScenario::kCrossCloud), &gen);
  Observe(ctl, CyclicGets(0, 400, 30));
  const ReconfigDecision first = ctl.Reconfigure(2 * kHour, 0);
  ASSERT_TRUE(first.optimized);
  ASSERT_TRUE(first.cluster_changed);  // 0 -> N nodes
  EXPECT_GT(first.reconfig_seconds, 100.0);
  // Same workload again: same decision, no cluster change, fast reconfig.
  Observe(ctl, CyclicGets(2 * kHour, 400, 30));
  const ReconfigDecision second = ctl.Reconfigure(2 * kHour + 15 * kMinute, 0);
  if (!second.cluster_changed) {
    EXPECT_LT(second.reconfig_seconds, 60.0);
  }
}

}  // namespace
}  // namespace macaron
