// End-to-end behavioural tests: the paper's headline claims must hold in
// shape on the synthetic suite (who wins, in which regime).

#include <gtest/gtest.h>

#include "src/oracle/exact_oracle.h"
#include "src/sim/replay_engine.h"
#include "src/trace/concat.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

Trace Load(const std::string& name) {
  const WorkloadProfile p = ProfileByName(name);
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

RunResult RunApproach(const Trace& t, Approach a,
              DeploymentScenario scenario = DeploymentScenario::kCrossCloud) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(scenario);
  cfg.scenario = scenario == DeploymentScenario::kCrossCloud ? LatencyScenario::kCrossCloudUs
                                                             : LatencyScenario::kCrossRegionUs;
  cfg.measure_latency = false;
  cfg.num_minicaches = 32;
  return ReplayEngine(cfg).Run(t);
}

TEST(IntegrationTest, MacaronBeatsRemoteAndReplicatedOnRepetitiveTrace) {
  // Fig 7 shape: Macaron outperforms both endpoints of the spectrum.
  const Trace t = Load("ibm12");
  const double remote = RunApproach(t, Approach::kRemote).costs.Total();
  const double replicated = RunApproach(t, Approach::kReplicated).costs.Total();
  const double mac = RunApproach(t, Approach::kMacaronNoCluster).costs.Total();
  EXPECT_LT(mac, remote * 0.1);  // paper: ~98% egress reduction on IBM 12
  EXPECT_LT(mac, replicated);
}

TEST(IntegrationTest, MacaronBeatsEcpc) {
  // §7.2: ECPC's DRAM pricing forces small caches; Macaron's OSC wins.
  const Trace t = Load("ibm12");
  const double ecpc = RunApproach(t, Approach::kEcpc).costs.Total();
  const double mac = RunApproach(t, Approach::kMacaronNoCluster).costs.Total();
  EXPECT_LT(mac, ecpc * 0.7);
}

// Oracular (§5.4): the exact offline optimum with operation costs zeroed.
ExactOracleResult Oracular(const Trace& t) {
  return RunExactOracle(t, PriceBook::Aws(DeploymentScenario::kCrossCloud).OpFree());
}

TEST(IntegrationTest, OracularLowerBoundHolds) {
  // Oracular must not cost more than Macaron (§5.4: idealized benchmark).
  for (const char* name : {"ibm12", "ibm18", "ibm55", "vmware"}) {
    const Trace t = Load(name);
    const double mac = RunApproach(t, Approach::kMacaronNoCluster).costs.Total();
    EXPECT_LE(Oracular(t).costs.Total(), mac * 1.02) << name;
  }
}

TEST(IntegrationTest, MacaronWithinModestFactorOfOracular) {
  // Fig 1b: an oracle with perfect future knowledge only improves on
  // Macaron by single-digit percent on average (we allow generous slack on
  // individual traces).
  const Trace t = Load("ibm55");
  const RunResult mac = RunApproach(t, Approach::kMacaronNoCluster);
  const ExactOracleResult o = Oracular(t);
  // Compare data costs (oracle has no infra/ops by definition).
  const double mac_data =
      mac.costs.Get(CostCategory::kEgress) + mac.costs.Get(CostCategory::kCapacity);
  EXPECT_LT(mac_data, o.costs.Total() * 2.5);
}

TEST(IntegrationTest, CrossRegionPicksSmallerCacheThanCrossCloud) {
  // §7.2: with 9c/GB egress Macaron provisions more capacity than at 2c/GB.
  const Trace t = Load("ibm83");
  const RunResult cc = RunApproach(t, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
  const RunResult cr = RunApproach(t, Approach::kMacaronNoCluster, DeploymentScenario::kCrossRegion);
  EXPECT_LE(cr.mean_stored_bytes, cc.mean_stored_bytes * 1.05);
}

TEST(IntegrationTest, HighCompulsoryTraceGainsLittle) {
  // IBM 96 (87% compulsory): Macaron only marginally beats Remote but
  // trounces Replicated (§7.2, Appendix A.3).
  const Trace t = Load("ibm96");
  const double remote = RunApproach(t, Approach::kRemote).costs.Total();
  const double replicated = RunApproach(t, Approach::kReplicated).costs.Total();
  const double mac = RunApproach(t, Approach::kMacaronNoCluster).costs.Total();
  EXPECT_LT(mac, remote);
  EXPECT_GT(mac, remote * 0.5);       // gains are bounded by compulsory misses
  EXPECT_LT(mac, replicated * 0.5);   // paper: 81.7% cheaper than Replicated
}

TEST(IntegrationTest, BurstTraceUsesTinyCache) {
  // IBM 9: short-lived objects; Macaron provisions ~1% of dataset yet cuts
  // most egress.
  const Trace t = Load("ibm9");
  const RunResult mac = RunApproach(t, Approach::kMacaronNoCluster);
  EXPECT_LT(mac.mean_stored_bytes, static_cast<double>(mac.dataset_bytes) * 0.25);
  const double remote = RunApproach(t, Approach::kRemote).costs.Total();
  EXPECT_LT(mac.costs.Total(), remote * 0.35);  // paper: 79% reduction
}

TEST(IntegrationTest, MacaronTtlTracksMacaron) {
  // §7.8: Macaron-TTL within a few percent of Macaron.
  const Trace t = Load("ibm18");
  const double mac = RunApproach(t, Approach::kMacaronNoCluster).costs.Total();
  const double ttl = RunApproach(t, Approach::kMacaronTtl).costs.Total();
  EXPECT_NEAR(ttl / mac, 1.0, 0.25);
}

TEST(IntegrationTest, AdaptiveBeatsStaticOnWorkloadChange) {
  // Fig 8: after an abrupt workload change, decayed adaptation beats a
  // static configuration fixed from day one.
  const Trace a = Load("ibm55");
  const Trace b = Load("ibm83");
  const Trace combined = ConcatenateTraces(a, b, kHour);
  const RunResult adaptive = RunApproach(combined, Approach::kMacaronNoCluster);
  EngineConfig static_cfg;
  static_cfg.approach = Approach::kStaticCapacity;
  static_cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  static_cfg.measure_latency = false;
  static_cfg.num_minicaches = 32;
  static_cfg.static_capacity_bytes =
      std::max<uint64_t>(adaptive.first_optimized_capacity, 1'000'000);
  const RunResult fixed = ReplayEngine(static_cfg).Run(combined);
  EXPECT_LT(adaptive.costs.Total(), fixed.costs.Total() * 1.05);
}

TEST(IntegrationTest, DecayAdaptsFasterThanNoDecay) {
  // Fig 8: with an abrupt change, decay reduces cost versus NoDecay.
  const Trace combined = ConcatenateTraces(Load("ibm55"), Load("ibm83"), kHour);
  EngineConfig decay_cfg;
  decay_cfg.approach = Approach::kMacaronNoCluster;
  decay_cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  decay_cfg.measure_latency = false;
  decay_cfg.num_minicaches = 32;
  EngineConfig nodecay_cfg = decay_cfg;
  nodecay_cfg.decay_per_day = 1.0;
  const double with_decay = ReplayEngine(decay_cfg).Run(combined).costs.Total();
  const double no_decay = ReplayEngine(nodecay_cfg).Run(combined).costs.Total();
  EXPECT_LT(with_decay, no_decay * 1.10);
}

TEST(IntegrationTest, EveryApproachRunsOnEveryHeadlineTrace) {
  // Smoke sweep: no crashes, costs positive, accounting consistent.
  for (const std::string& name : HeadlineProfileNames()) {
    const Trace t = Load(name);
    for (Approach a : {Approach::kRemote, Approach::kReplicated, Approach::kEcpc,
                       Approach::kMacaronNoCluster}) {
      const RunResult r = RunApproach(t, a);
      EXPECT_GT(r.costs.Total(), 0.0) << name << "/" << r.approach_name;
      EXPECT_EQ(r.gets, ComputeStats(t).num_gets) << name << "/" << r.approach_name;
    }
  }
}

}  // namespace
}  // namespace macaron
