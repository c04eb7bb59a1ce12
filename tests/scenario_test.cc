// Determinism and sensitivity tests for the adversarial-economics
// scenarios: price shocks in both serving engines, flash-crowd / drift
// stream profiles, regret annotation end-to-end, and the sweep fingerprint
// surface that keys all of it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/oracle/exact_oracle.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/scheduler.h"
#include "src/trace/stream_source.h"

namespace macaron {
namespace {

// Materializes a stream profile into a Trace (same request sequence the
// engines replay chunk by chunk).
Trace Materialize(const StreamProfile& profile) {
  SyntheticStreamSource source(profile);
  Trace t;
  t.name = profile.name;
  ReplayBatch batch;
  while (source.FillNext(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      t.requests.push_back(
          {batch.times[i], batch.ids[i], batch.sizes[i], batch.ops[i]});
    }
  }
  return t;
}

StreamProfile BaseProfile() {
  StreamProfile p;
  p.name = "scenario-base";
  p.num_requests = 30000;
  p.population = 1ull << 12;
  p.zipf_alpha = 0.9;
  p.duration = 2 * kDay;
  p.mean_object_bytes = 1ull << 20;
  p.put_fraction = 0.1;
  p.delete_fraction = 0.02;
  p.seed = 11;
  return p;
}

PriceShock MidEgressSpike() {
  PriceShock s;
  s.at = kDay;
  s.egress_scale = 3.0;
  return s;
}

EngineConfig ShockedConfig(const std::vector<PriceShock>& shocks) {
  EngineConfig cfg;
  cfg.approach = Approach::kMacaronNoCluster;
  cfg.measure_latency = false;
  cfg.price_shocks = shocks;
  return cfg;
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    EXPECT_EQ(a.costs.Get(static_cast<CostCategory>(c)),
              b.costs.Get(static_cast<CostCategory>(c)))
        << CostCategoryName(static_cast<CostCategory>(c));
  }
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.osc_hits, b.osc_hits);
  EXPECT_EQ(a.remote_fetches, b.remote_fetches);
  EXPECT_EQ(a.egress_bytes, b.egress_bytes);
  EXPECT_EQ(a.mean_stored_bytes, b.mean_stored_bytes);
}

TEST(PriceShockScenarioTest, ReplayBitIdenticalAcrossShardThreads) {
  const Trace t = Materialize(BaseProfile());
  EngineConfig cfg = ShockedConfig({MidEgressSpike()});
  cfg.num_shards = 4;
  cfg.shard_threads = 1;
  const RunResult serial = ReplayEngine(cfg).Run(t);
  cfg.shard_threads = 4;
  const RunResult parallel = ReplayEngine(cfg).Run(t);
  ExpectBitIdentical(serial, parallel);
}

TEST(PriceShockScenarioTest, ShockChangesCostsDeterministically) {
  const Trace t = Materialize(BaseProfile());
  const RunResult baseline = ReplayEngine(ShockedConfig({})).Run(t);
  const RunResult shocked_a = ReplayEngine(ShockedConfig({MidEgressSpike()})).Run(t);
  const RunResult shocked_b = ReplayEngine(ShockedConfig({MidEgressSpike()})).Run(t);
  ExpectBitIdentical(shocked_a, shocked_b);
  // A 3x egress repricing mid-run must raise egress spend; the request path
  // itself is untouched (shocks change dollars, not behavior).
  EXPECT_GT(shocked_a.costs.Get(CostCategory::kEgress),
            baseline.costs.Get(CostCategory::kEgress));
  EXPECT_EQ(shocked_a.osc_hits, baseline.osc_hits);
  EXPECT_EQ(shocked_a.egress_bytes, baseline.egress_bytes);
}

TEST(PriceShockScenarioTest, UnitScaleShockMatchesBaselineCosts) {
  // An all-1.0 shock exercises the flush-and-swap machinery without
  // changing any rate: integer counters must match exactly, and dollar
  // totals to summation-order tolerance (the flush splits one conversion
  // into two).
  const Trace t = Materialize(BaseProfile());
  PriceShock noop;
  noop.at = kDay;
  const RunResult baseline = ReplayEngine(ShockedConfig({})).Run(t);
  const RunResult flushed = ReplayEngine(ShockedConfig({noop})).Run(t);
  EXPECT_EQ(flushed.osc_hits, baseline.osc_hits);
  EXPECT_EQ(flushed.remote_fetches, baseline.remote_fetches);
  EXPECT_EQ(flushed.egress_bytes, baseline.egress_bytes);
  EXPECT_NEAR(flushed.costs.Total(), baseline.costs.Total(),
              1e-9 * (1.0 + baseline.costs.Total()));
}

TEST(PriceShockScenarioTest, EventEngineShockDeterministic) {
  StreamProfile p = BaseProfile();
  p.num_requests = 8000;
  const Trace t = Materialize(p);
  EngineConfig cfg = ShockedConfig({MidEgressSpike()});
  cfg.approach = Approach::kMacaron;
  const RunResult a = EventEngine(cfg).Run(t);
  const RunResult b = EventEngine(cfg).Run(t);
  ExpectBitIdentical(a, b);
  const RunResult baseline = [&] {
    EngineConfig base_cfg = cfg;
    base_cfg.price_shocks.clear();
    return EventEngine(base_cfg).Run(t);
  }();
  EXPECT_GT(a.costs.Get(CostCategory::kEgress),
            baseline.costs.Get(CostCategory::kEgress));
  // Unlike the fixed-size replay path, the adaptive controller reprices its
  // sizing decisions with the shocked book, so traffic itself may shift;
  // only determinism and the dollar direction are pinned here.
  EXPECT_EQ(a.gets, baseline.gets);
}

TEST(FlashCrowdScenarioTest, StreamIsRepeatableAndDisabledMatchesBase) {
  StreamProfile flash = BaseProfile();
  flash.name = "scenario-flash";
  flash.flash_at = kDay;
  flash.flash_duration = 2 * kHour;
  flash.flash_fraction = 0.6;
  flash.flash_population = 32;
  const Trace a = Materialize(flash);
  const Trace b = Materialize(flash);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_TRUE(a.requests == b.requests);

  // Disabled burst (zero duration) must not consume any extra RNG draws:
  // the stream is identical to the base profile no matter what the other
  // flash knobs say.
  StreamProfile disabled = BaseProfile();
  disabled.flash_fraction = 0.99;
  disabled.flash_population = 7;
  disabled.flash_at = kHour;
  const Trace base = Materialize(BaseProfile());
  const Trace dis = Materialize(disabled);
  EXPECT_TRUE(base.requests == dis.requests);

  // The burst must actually redirect traffic inside its window.
  size_t changed = 0;
  for (size_t i = 0; i < a.requests.size(); ++i) {
    if (a.requests[i].time >= flash.flash_at &&
        a.requests[i].time < flash.flash_at + flash.flash_duration &&
        a.requests[i].id != base.requests[i].id) {
      ++changed;
    }
  }
  EXPECT_GT(changed, 100u);
}

TEST(FlashCrowdScenarioTest, DriftRotatesHotSet) {
  StreamProfile drift = BaseProfile();
  drift.name = "scenario-drift";
  drift.drift_period = 6 * kHour;
  const Trace a = Materialize(drift);
  const Trace b = Materialize(drift);
  EXPECT_TRUE(a.requests == b.requests);
  EXPECT_NE(a.requests, Materialize(BaseProfile()).requests);
}

TEST(RegretAnnotationTest, EndToEndWithShocks) {
  const Trace t = Materialize(BaseProfile());
  const std::vector<PriceShock> shocks = {MidEgressSpike()};
  obs::DecisionTrace dt;
  EngineConfig cfg = ShockedConfig(shocks);
  // Op-free book: the regret reference is §5.4's perfect-packing basket, so
  // the closing regret is provably >= 0.
  EngineConfig oracle_cfg = cfg;
  oracle_cfg.prices.get_per_request = 0.0;
  oracle_cfg.prices.put_per_request = 0.0;
  cfg.decision_trace = &dt;
  const RunResult run = ReplayEngine(cfg).Run(t);
  ExactOracleOptions opts;
  opts.window = cfg.window;
  opts.shocks = shocks;
  const ExactOracleResult oracle = RunExactOracle(t, oracle_cfg.prices, opts);
  AnnotateRegret(&dt, oracle);
  ASSERT_FALSE(dt.records().empty());
  for (const obs::DecisionRecord& rec : dt.records()) {
    EXPECT_NE(rec.regret_usd, -1.0);  // every record annotated
    EXPECT_GT(rec.price_egress_per_gb, 0.0);
    EXPECT_GT(rec.price_storage_per_gb_month, 0.0);
  }
  // Records at or after the shock boundary carry the repriced egress (the
  // boundary record is emitted after the shock applies at that boundary).
  bool saw_shocked = false;
  for (const obs::DecisionRecord& rec : dt.records()) {
    if (rec.time >= kDay) {
      EXPECT_NEAR(rec.price_egress_per_gb, 0.27, 1e-12);
      saw_shocked = true;
    } else {
      EXPECT_NEAR(rec.price_egress_per_gb, 0.09, 1e-12);
    }
  }
  EXPECT_TRUE(saw_shocked);
  // The closing record's realized data cost dominates the optimum.
  const obs::DecisionRecord& last = dt.records().back();
  EXPECT_GE(last.regret_usd, -1e-9);
  // Realized cost is the engine's own data-cost basket.
  const double data = run.costs.Get(CostCategory::kEgress) +
                      run.costs.Get(CostCategory::kCapacity) +
                      run.costs.Get(CostCategory::kOperation);
  EXPECT_LE(last.realized_cost_usd, data + 1e-9);
}

TEST(FingerprintScenarioTest, ShockAndEngineKindSensitivity) {
  EngineConfig plain;
  plain.measure_latency = false;
  EngineConfig shocked = plain;
  shocked.price_shocks = {MidEgressSpike()};
  const sweep::Fingerprint fp_plain = sweep::FingerprintEngineConfig(plain);
  const sweep::Fingerprint fp_shocked = sweep::FingerprintEngineConfig(shocked);
  EXPECT_NE(fp_plain.Hex(), fp_shocked.Hex());
  EngineConfig shocked2 = shocked;
  shocked2.price_shocks[0].egress_scale = 2.0;
  EXPECT_NE(fp_shocked.Hex(), sweep::FingerprintEngineConfig(shocked2).Hex());

  // Engine kinds key distinct jobs; the oracle-family kinds carry the
  // oracle-v2 accounting salt.
  const sweep::Fingerprint trace_id{1, 2};
  const sweep::Fingerprint cfg_id{3, 4};
  std::vector<std::string> keys;
  for (int kind = 0; kind <= 3; ++kind) {
    keys.push_back(sweep::JobFingerprint(trace_id, cfg_id, kind).Hex());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }
}

TEST(SweepScenarioTest, WarmStoreReproducesShockedRunsBitIdentically) {
  const Trace t = Materialize(BaseProfile());
  char dir[] = "/tmp/macaron-scenario-store-XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  EngineConfig engine_cfg = ShockedConfig({MidEgressSpike()});
  EngineConfig oracle_cfg;
  oracle_cfg.approach = Approach::kRemote;
  oracle_cfg.measure_latency = false;
  oracle_cfg.price_shocks = {MidEgressSpike()};

  const auto run_once = [&](int threads, RunResult* engine_out, RunResult* oracle_out) {
    sweep::SweepScheduler::Options opt;
    opt.threads = threads;
    opt.store_dir = dir;
    sweep::SweepScheduler sched(opt);
    sweep::SweepJobSpec engine_job;
    engine_job.trace = std::make_shared<const Trace>(t);
    engine_job.trace_identity = sweep::FingerprintTraceContent(t);
    engine_job.config = engine_cfg;
    sweep::SweepJobSpec oracle_job = engine_job;
    oracle_job.config = oracle_cfg;
    oracle_job.engine = sweep::JobEngine::kExactOracle;
    const size_t e = sched.Submit(engine_job);
    const size_t o = sched.Submit(oracle_job);
    *engine_out = sched.Result(e);
    *oracle_out = sched.Result(o);
  };

  RunResult cold_engine, cold_oracle, warm_engine, warm_oracle;
  run_once(1, &cold_engine, &cold_oracle);   // cold: simulates and persists
  run_once(4, &warm_engine, &warm_oracle);   // warm: loads from the store
  ExpectBitIdentical(cold_engine, warm_engine);
  ExpectBitIdentical(cold_oracle, warm_oracle);
  EXPECT_EQ(warm_oracle.approach_name, "exact-oracle");
}

}  // namespace
}  // namespace macaron
