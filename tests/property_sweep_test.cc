// Property sweep: engine invariants that must hold on EVERY workload in the
// 19-trace suite, for the main approaches. These are the regression nets
// that keep the cost accounting honest as the system evolves.

#include <gtest/gtest.h>

#include "src/oracle/exact_oracle.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// Shrunk variants of every profile keep the sweep fast while preserving the
// access-pattern structure.
WorkloadProfile Shrunk(WorkloadProfile p) {
  p.dataset_bytes /= 4;
  p.get_bytes /= 4;
  p.put_bytes /= 4;
  p.duration = std::min<SimDuration>(p.duration, 3 * kDay);
  return p;
}

class ProfileSweepTest : public testing::TestWithParam<WorkloadProfile> {
 protected:
  static Trace Load(const WorkloadProfile& p) {
    return SplitObjects(GenerateTrace(p), p.max_object_bytes);
  }
  static RunResult RunOne(const Trace& t, Approach a) {
    EngineConfig cfg;
    cfg.approach = a;
    cfg.measure_latency = false;
    cfg.num_minicaches = 16;
    return ReplayEngine(cfg).Run(t);
  }
};

TEST_P(ProfileSweepTest, MacaronAccountingInvariants) {
  const Trace t = Load(Shrunk(GetParam()));
  const TraceStats s = ComputeStats(t);
  const RunResult r = RunOne(t, Approach::kMacaronNoCluster);
  // Hit counters partition GETs.
  EXPECT_EQ(r.cluster_hits + r.osc_hits + r.remote_fetches + r.delayed_hits, s.num_gets);
  // Egress bounded by [compulsory, all-get-bytes].
  EXPECT_GE(r.egress_bytes, s.unique_get_bytes);
  EXPECT_LE(r.egress_bytes, s.get_bytes);
  // Egress dollars consistent with egress bytes.
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress),
              static_cast<double>(r.egress_bytes) / 1e9 * 0.09,
              r.costs.Get(CostCategory::kEgress) * 0.01 + 1e-9);
  // Resident bytes can never exceed the dataset (plus bounded garbage).
  EXPECT_LT(r.mean_stored_bytes, static_cast<double>(s.unique_bytes) * 1.6);
}

TEST_P(ProfileSweepTest, MacaronNeverWorseThanBothBaselinesTogether) {
  // Macaron may lose to one endpoint on pathological traces, but it must
  // never lose to BOTH remote and replicated at cross-cloud prices.
  const Trace t = Load(Shrunk(GetParam()));
  const double remote = RunOne(t, Approach::kRemote).costs.Total();
  const double replicated = RunOne(t, Approach::kReplicated).costs.Total();
  const double mac = RunOne(t, Approach::kMacaronNoCluster).costs.Total();
  EXPECT_LT(mac, std::max(remote, replicated) * 1.0001) << GetParam().name;
}

TEST_P(ProfileSweepTest, OracularNeverAboveMacaronDataCost) {
  const Trace t = Load(Shrunk(GetParam()));
  const RunResult mac = RunOne(t, Approach::kMacaronNoCluster);
  // Oracular (§5.4): the exact offline optimum with operation costs zeroed.
  const ExactOracleResult o =
      RunExactOracle(t, PriceBook::Aws(DeploymentScenario::kCrossCloud).OpFree());
  const double mac_data =
      mac.costs.Get(CostCategory::kEgress) + mac.costs.Get(CostCategory::kCapacity);
  EXPECT_LE(o.costs.Total(), mac_data * 1.02) << GetParam().name;
}

TEST_P(ProfileSweepTest, DeterministicAcrossRuns) {
  const Trace t = Load(Shrunk(GetParam()));
  EngineConfig cfg;
  cfg.approach = Approach::kMacaronNoCluster;
  cfg.measure_latency = false;
  cfg.num_minicaches = 16;
  const RunResult a = ReplayEngine(cfg).Run(t);
  const RunResult b = ReplayEngine(cfg).Run(t);
  EXPECT_EQ(a.costs.Total(), b.costs.Total()) << GetParam().name;
  EXPECT_EQ(a.egress_bytes, b.egress_bytes) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileSweepTest, testing::ValuesIn(AllProfiles()),
                         [](const testing::TestParamInfo<WorkloadProfile>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace macaron
