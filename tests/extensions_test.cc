// Tests for the extension features: the flash cache tier (§4.1 future
// work), admission bypass, priming ablation, and non-LRU OSC policies in
// the full engine. The priming case runs both engines.

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

Trace SmallTrace() {
  WorkloadProfile p = ProfileByName("ibm18");
  p.dataset_bytes = 500'000'000;
  p.get_bytes = 2'000'000'000;
  p.put_bytes = 100'000'000;
  p.duration = 2 * kDay;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

EngineConfig BaseConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 16;
  return cfg;
}

// --- Flash tier ---

TEST(FlashTierTest, LatencyModelOrdersTiersCorrectly) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  const uint64_t size = 100'000;
  EXPECT_LT(truth.MeanMs(DataSource::kCacheCluster, size), truth.MeanMs(DataSource::kFlash, size));
  EXPECT_LT(truth.MeanMs(DataSource::kFlash, size), truth.MeanMs(DataSource::kOsc, size));
  EXPECT_LT(truth.MeanMs(DataSource::kOsc, size), truth.MeanMs(DataSource::kRemoteLake, size));
}

TEST(FlashTierTest, FlashCapacityCheaperThanDramCostlierThanObjectStorage) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_LT(p.flash_per_gb_month, p.dram_per_gb_month);
  EXPECT_GT(p.flash_per_gb_month, p.object_storage_per_gb_month);
}

TEST(FlashTierTest, FlashEcpcRunsAndUsesFlashNodes) {
  const Trace t = SmallTrace();
  const RunResult r = ReplayEngine(BaseConfig(Approach::kFlashEcpc)).Run(t);
  EXPECT_STREQ(r.approach_name.c_str(), "flash-ecpc");
  EXPECT_GT(r.cluster_hits, 0u);
  EXPECT_GT(r.costs.Get(CostCategory::kClusterNodes), 0.0);
  EXPECT_EQ(r.osc_hits, 0u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
}

TEST(FlashTierTest, FlashBeatsDramEcpcOnCost) {
  // Flash nodes hold ~37x more bytes per dollar: for cacheable workloads
  // the flash ECPC should provide at least the DRAM hit ratio at lower or
  // comparable cost.
  const Trace t = SmallTrace();
  EngineConfig dram = BaseConfig(Approach::kEcpc);
  dram.measure_latency = false;
  EngineConfig flash = BaseConfig(Approach::kFlashEcpc);
  flash.measure_latency = false;
  const RunResult rd = ReplayEngine(dram).Run(t);
  const RunResult rf = ReplayEngine(flash).Run(t);
  EXPECT_GE(rf.cluster_hits, rd.cluster_hits);
  EXPECT_LT(rf.costs.Total(), rd.costs.Total() * 1.05);
}

TEST(FlashTierTest, FlashSlowerThanDramFasterThanRemote) {
  const Trace t = SmallTrace();
  const RunResult dram = ReplayEngine(BaseConfig(Approach::kEcpc)).Run(t);
  const RunResult flash = ReplayEngine(BaseConfig(Approach::kFlashEcpc)).Run(t);
  const RunResult remote = ReplayEngine(BaseConfig(Approach::kRemote)).Run(t);
  EXPECT_LT(flash.MeanLatencyMs(), remote.MeanLatencyMs());
  // Flash holds more, so its *average* can beat DRAM-ECPC despite slower
  // hits; only assert it is not absurd.
  EXPECT_GT(flash.MeanLatencyMs(), 1.0);
  EXPECT_GT(dram.MeanLatencyMs(), 1.0);
}

// --- Admission bypass ---

TEST(AdmissionBypassTest, EngagesWhenCachingCannotPay) {
  // At 1% egress and with a once-only access pattern, caching cannot pay;
  // bypass should reduce cost versus always-admitting.
  WorkloadProfile p = ProfileByName("ibm96");  // high compulsory misses
  p.dataset_bytes = 2'000'000'000;
  p.get_bytes = 1'500'000'000;
  p.put_bytes = 1'000'000'000;
  p.duration = 3 * kDay;
  const Trace t = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  EngineConfig off = BaseConfig(Approach::kMacaronNoCluster);
  off.prices = off.prices.WithEgressScale(0.01);
  off.measure_latency = false;
  EngineConfig on = off;
  on.enable_admission_bypass = true;
  const RunResult r_off = ReplayEngine(off).Run(t);
  const RunResult r_on = ReplayEngine(on).Run(t);
  EXPECT_LE(r_on.costs.Total(), r_off.costs.Total() * 1.01);
}

TEST(AdmissionBypassTest, DoesNotHurtCacheableWorkloads) {
  // With normal egress prices the optimizer never pins the floor, so the
  // bypass must stay disengaged and results must match.
  const Trace t = SmallTrace();
  EngineConfig off = BaseConfig(Approach::kMacaronNoCluster);
  off.measure_latency = false;
  EngineConfig on = off;
  on.enable_admission_bypass = true;
  const RunResult r_off = ReplayEngine(off).Run(t);
  const RunResult r_on = ReplayEngine(on).Run(t);
  EXPECT_NEAR(r_on.costs.Total() / r_off.costs.Total(), 1.0, 0.02);
}

// --- Priming ---

TEST(PrimingTest, PrimingImprovesPostScaleOutLatency) {
  const Trace t = SmallTrace();
  EngineConfig primed = BaseConfig(Approach::kMacaron);
  EngineConfig cold = primed;
  cold.enable_priming = false;
  const RunResult rp = ReplayEngine(primed).Run(t);
  const RunResult rc = ReplayEngine(cold).Run(t);
  // Priming can only add cluster hits (§6.2: low-RPS workloads fill new
  // nodes too slowly on their own).
  EXPECT_GE(rp.cluster_hits, rc.cluster_hits);
}

template <typename Engine>
uint64_t PrimedObjects(const Trace& t, bool enable_priming) {
  EngineConfig cfg = BaseConfig(Approach::kMacaron);
  cfg.enable_priming = enable_priming;
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;
  Engine(cfg).Run(t);
  return metrics.CounterValue("cluster", "primed_objects");
}

// The cluster scales out on this trace, so new nodes get primed exactly
// when enable_priming is set, whichever engine applies the decision.
TEST(PrimingTest, EnablePrimingGatesPrimingInBothEngines) {
  const Trace t = SmallTrace();
  EXPECT_GT(PrimedObjects<ReplayEngine>(t, true), 0u);
  EXPECT_EQ(PrimedObjects<ReplayEngine>(t, false), 0u);
  EXPECT_GT(PrimedObjects<EventEngine>(t, true), 0u);
  EXPECT_EQ(PrimedObjects<EventEngine>(t, false), 0u);
}

// --- Engine with non-LRU OSC policies ---

class EnginePolicyTest : public testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(EnginePolicyTest, MacaronRunsUnderEveryOscPolicy) {
  const Trace t = SmallTrace();
  EngineConfig cfg = BaseConfig(Approach::kMacaronNoCluster);
  cfg.packing.policy = GetParam();
  cfg.measure_latency = false;
  const RunResult r = ReplayEngine(cfg).Run(t);
  const TraceStats s = ComputeStats(t);
  EXPECT_EQ(r.osc_hits + r.remote_fetches + r.delayed_hits, s.num_gets);
  EXPECT_GE(r.egress_bytes, s.unique_get_bytes);
  EXPECT_GT(r.costs.Total(), 0.0);
}

TEST_P(EnginePolicyTest, CapacityChoiceDominatesPolicyChoice) {
  // The paper's §8 claim: with the right capacity, replacement-policy
  // refinement moves costs only marginally. Every policy must land within
  // 25% of LRU's total.
  const Trace t = SmallTrace();
  EngineConfig lru_cfg = BaseConfig(Approach::kMacaronNoCluster);
  lru_cfg.measure_latency = false;
  const double lru_cost = ReplayEngine(lru_cfg).Run(t).costs.Total();
  EngineConfig cfg = lru_cfg;
  cfg.packing.policy = GetParam();
  const double cost = ReplayEngine(cfg).Run(t).costs.Total();
  EXPECT_NEAR(cost / lru_cost, 1.0, 0.25) << EvictionPolicyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EnginePolicyTest,
                         testing::Values(EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo,
                                         EvictionPolicyKind::kSlru,
                                         EvictionPolicyKind::kS3Fifo),
                         [](const testing::TestParamInfo<EvictionPolicyKind>& info) {
                           return EvictionPolicyName(info.param);
                         });

}  // namespace
}  // namespace macaron
