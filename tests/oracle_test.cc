// Tests for the offline oracle: the dollar-exact per-object DP
// (src/oracle/exact_oracle.h), and Oracular (§5.4), which is that DP on the
// op-free price book. The DP is pinned exact by a brute-force enumerator
// over every feasible per-gap keep schedule on fixture-sized traces.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/decision_trace.h"
#include "src/oracle/exact_oracle.h"
#include "src/sim/replay_engine.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

PriceBook CrossCloud() { return PriceBook::Aws(DeploymentScenario::kCrossCloud); }

// Oracular: the exact DP under §5.4's perfect-packing assumption (GET/PUT
// prices zeroed), as the sweep's kOracle job runs it.
ExactOracleResult Oracular(const Trace& t, const PriceBook& book,
                           const LatencySampler* latency = nullptr, uint64_t seed = 1) {
  ExactOracleOptions opts;
  opts.latency = latency;
  opts.seed = seed;
  return RunExactOracle(t, book.OpFree(), opts);
}

TEST(OracularTest, EmptyTrace) {
  const ExactOracleResult r = Oracular(Trace{}, CrossCloud());
  EXPECT_EQ(r.costs.Total(), 0.0);
}

TEST(OracularTest, SingleAccessPaysEgressOnly) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 0u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09, 1e-9);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);  // never stored
}

TEST(OracularTest, QuickReaccessIsStoredAndHits) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {kHour, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  // Storage for one hour is far cheaper than a second egress.
  EXPECT_LT(r.costs.Get(CostCategory::kCapacity), 0.09);
}

TEST(OracularTest, ReaccessBeyondBreakEvenIsRefetched) {
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {far, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
}

TEST(OracularTest, CrossRegionBreakEvenIsShorter) {
  // 30 days between accesses: cheaper to store cross-cloud (116d break-even)
  // but cheaper to refetch cross-region (26d break-even).
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {30 * kDay, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult cc = Oracular(t, CrossCloud());
  const ExactOracleResult cr = Oracular(t, PriceBook::Aws(DeploymentScenario::kCrossRegion));
  EXPECT_EQ(cc.remote_fetches, 1u);
  EXPECT_EQ(cr.remote_fetches, 2u);
}

TEST(OracularTest, PutThenReadHitsWithoutEgress) {
  Trace t;
  t.requests = {{0, 1, 1'000'000, Op::kPut}, {kHour, 1, 1'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 0u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.costs.Get(CostCategory::kEgress), 0.0);
}

TEST(OracularTest, DeleteBeforeNextGetMeansNoStorage) {
  Trace t;
  t.requests = {{0, 1, 1'000'000, Op::kGet},
                {kHour, 1, 1'000'000, Op::kDelete},
                {2 * kHour, 1, 1'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud());
  // Both GETs are remote: storing until a deletion has no value, and the
  // post-delete GET sees a fresh object.
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
}

TEST(OracularTest, NoOperationCosts) {
  Trace t;
  for (int i = 0; i < 100; ++i) {
    t.requests.push_back({i * kMinute, static_cast<ObjectId>(i % 5), 1'000'000, Op::kGet});
  }
  const ExactOracleResult r = Oracular(t, CrossCloud());
  EXPECT_EQ(r.costs.Get(CostCategory::kOperation), 0.0);
  EXPECT_EQ(r.costs.Get(CostCategory::kInfra), 0.0);
}

TEST(OracularTest, LatencyMeasuredWhenSamplerProvided) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 2);
  Trace t;
  t.requests = {{0, 1, 1000, Op::kGet}, {kMinute, 1, 1000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, CrossCloud(), &gen, 3);
  EXPECT_EQ(r.latency_ms.count(), 2u);
  // Second access (OSC hit) should usually be faster than the remote fetch.
  EXPECT_LT(r.latency_ms.samples()[1], r.latency_ms.samples()[0]);
}

TEST(OracularTest, NeverCostsMoreEgressThanRemote) {
  // Property: oracle egress <= total GET bytes (each byte fetched at most
  // once per break-even window).
  const Trace t = GenerateTrace(ProfileByName("ibm18"));
  const ExactOracleResult r = Oracular(t, CrossCloud(), nullptr, 4);
  const TraceStats s = ComputeStats(t);
  EXPECT_LE(r.egress_bytes, s.get_bytes);
  // And at least the compulsory bytes must be fetched.
  EXPECT_GE(r.egress_bytes, s.unique_get_bytes);
}

TEST(OracularTest, MeanStoredBytesPositiveForReuseHeavyTrace) {
  const Trace t = GenerateTrace(ProfileByName("ibm12"));
  const ExactOracleResult r = Oracular(t, CrossCloud(), nullptr, 5);
  EXPECT_GT(r.mean_stored_bytes, 0.0);
  const TraceStats s = ComputeStats(t);
  EXPECT_LT(r.mean_stored_bytes, static_cast<double>(s.unique_bytes) * 1.01);
}

TEST(OracularTest, PutReplacesTheCopyWithoutBillingIt) {
  // GET at 0, PUT at 10 days, GET at 20 days. The PUT makes the first
  // GET's copy stale, so storing it past the PUT buys nothing: the optimum
  // pays one egress plus 10 days of storage for the new copy
  // ($0.0976667), and the second GET hits. The per-gap keep rule kept the
  // old copy until the second GET and billed 20 days ($0.1053333).
  const uint64_t size = 1'000'000'000;
  Trace t;
  t.requests = {{0, 1, size, Op::kGet},
                {10 * kDay, 1, size, Op::kPut},
                {20 * kDay, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = Oracular(t, book);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kCapacity), book.StorageCost(size, 10 * kDay), 1e-12);
  EXPECT_NEAR(r.costs.Total(), book.EgressCost(size) + book.StorageCost(size, 10 * kDay),
              1e-12);
  EXPECT_NEAR(r.costs.Total(), 0.09 + 0.023 / 3.0, 1e-12);
}

TEST(OracularTest, BreakEvenTiePrefersTheStoredCopy) {
  // Egress and storage both 0.5 $/GB, two GETs of 1 GB exactly one billing
  // month apart: storing and refetching cost the same, and the tie resolves
  // to the stored path, so the second GET hits. Either way the bill is $1.
  PriceBook book = CrossCloud();
  book.egress_per_gb = 0.5;
  book.object_storage_per_gb_month = 0.5;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {kBillingMonth, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = Oracular(t, book);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_NEAR(r.costs.Total(), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Exact oracle (per-object interval DP).

// Independent reference: enumerate every feasible storage schedule — one
// outgoing stored/not-stored bit per event per object, storing after a
// DELETE prohibited — and return the cheapest total. Exponential in chain
// length; fixture-sized traces only.
double BruteForceOptimum(const Trace& trace, const PriceBook& prices,
                         const std::vector<PriceShock>& shocks = {},
                         SimDuration window = 15 * kMinute) {
  const PriceSchedule sched(prices, AlignShocksToWindows(shocks, window));
  std::map<ObjectId, std::vector<size_t>> chains;
  for (size_t i = 0; i < trace.size(); ++i) {
    chains[trace.requests[i].id].push_back(i);
  }
  double total = 0.0;
  for (const auto& [id, ev] : chains) {
    const size_t k = ev.size();
    double best = std::numeric_limits<double>::infinity();
    for (uint64_t mask = 0; mask < (1ull << k); ++mask) {
      double cost = 0.0;
      bool feasible = true;
      bool in_stored = false;
      for (size_t j = 0; j < k && feasible; ++j) {
        const Request& r = trace.requests[ev[j]];
        const PriceBook& book = sched.At(r.time);
        const bool out_stored = (mask >> j) & 1;
        if (in_stored) {
          const Request& prev = trace.requests[ev[j - 1]];
          cost += sched.StorageCostOver(prev.size, prev.time, r.time);
        }
        switch (r.op) {
          case Op::kGet:
            cost += book.GetCost(1);
            if (!in_stored) {
              cost += book.EgressCost(r.size);
              if (out_stored) {
                cost += book.PutCost(1);  // admission
              }
            }
            break;
          case Op::kPut:
            if (out_stored) {
              cost += book.PutCost(1);
            }
            break;
          case Op::kDelete:
            if (out_stored) {
              feasible = false;  // the object no longer exists
            }
            break;
        }
        in_stored = out_stored;
      }
      if (feasible && cost < best) {
        best = cost;
      }
    }
    total += best;
  }
  return total;
}

// Small random trace with PUTs and DELETEs; gaps span hours to months so
// keep/drop decisions land on both sides of every break-even.
Trace RandomSmallTrace(uint64_t seed, int num_events, uint64_t num_objects) {
  Rng rng(seed);
  Trace t;
  t.name = "bf-random";
  SimTime time = 0;
  for (int i = 0; i < num_events; ++i) {
    time += static_cast<SimTime>(rng.NextBounded(40 * kDay));
    Request r;
    r.time = time;
    // Skewed popularity: nested bound approximates a Zipf head.
    r.id = 1 + rng.NextBounded(rng.NextBounded(num_objects) + 1);
    r.size = 100'000 + rng.NextBounded(50'000'000);
    const uint64_t p = rng.NextBounded(10);
    r.op = p < 6 ? Op::kGet : (p < 8 ? Op::kPut : Op::kDelete);
    t.requests.push_back(r);
  }
  return t;
}

TEST(ExactOracleTest, EmptyTrace) {
  const ExactOracleResult r = RunExactOracle(Trace{}, CrossCloud());
  EXPECT_EQ(r.costs.Total(), 0.0);
  EXPECT_EQ(r.objects_total, 0u);
  EXPECT_FALSE(r.caching_pays);
  EXPECT_TRUE(r.window_cost_timeline.empty());
}

TEST(ExactOracleTest, SingleGetPaysEgressAndOpOnly) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 0u);
  EXPECT_EQ(r.admits, 0u);
  EXPECT_NEAR(r.costs.Get(CostCategory::kEgress), 0.09, 1e-9);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
  EXPECT_NEAR(r.costs.Get(CostCategory::kOperation), book.get_per_request, 1e-15);
  // One compulsory fetch: caching cannot beat remote-only.
  EXPECT_FALSE(r.caching_pays);
  EXPECT_NEAR(r.costs.Total(), r.remote_only_usd, 1e-12);
}

TEST(ExactOracleTest, QuickReaccessHitsAndCachingPays) {
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {kHour, 1, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.admits, 1u);
  EXPECT_TRUE(r.caching_pays);
  EXPECT_EQ(r.objects_cached, 1u);
  // Hand tally: one egress, one admission PUT, two GET ops, one hour of
  // storage for 1 GB.
  const double expected = book.EgressCost(1'000'000'000) + book.PutCost(1) +
                          2 * book.GetCost(1) + book.StorageCost(1'000'000'000, kHour);
  EXPECT_NEAR(r.costs.Total(), expected, 1e-12);
  EXPECT_NEAR(r.dp_total_usd, expected, 1e-12);
}

TEST(ExactOracleTest, ReaccessBeyondBreakEvenRefetches) {
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet}, {far, 1, 1'000'000'000, Op::kGet}};
  const ExactOracleResult r = RunExactOracle(t, CrossCloud());
  EXPECT_EQ(r.remote_fetches, 2u);
  EXPECT_EQ(r.costs.Get(CostCategory::kCapacity), 0.0);
  EXPECT_EQ(r.admits, 0u);
}

TEST(ExactOracleTest, PutBetweenGetsServesFromRefreshedCopy) {
  const uint64_t size = 1'000'000'000;
  Trace t;
  t.requests = {{0, 1, size, Op::kGet},
                {kHour, 1, size, Op::kPut},
                {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  // The optimum admits the PUT copy and serves the second GET from it:
  // storage for one hour plus an admission PUT beats a second egress. The
  // gap between the GET and the PUT stores nothing (the PUT overwrites).
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_EQ(r.admits, 1u);
  const double expected = book.EgressCost(size) + 2 * book.GetCost(1) + book.PutCost(1) +
                          book.StorageCost(size, kHour);
  EXPECT_NEAR(r.costs.Total(), expected, 1e-12);
  EXPECT_NEAR(BruteForceOptimum(t, book), expected, 1e-12);
}

TEST(ExactOracleTest, DeleteAndRecreateAtEqualTimestamps) {
  const uint64_t size = 500'000'000;
  Trace t;
  t.requests = {{0, 1, size, Op::kGet},
                {kHour, 1, size, Op::kDelete},
                {kHour, 1, size, Op::kPut},  // recreated at the same instant
                {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book);
  // The DELETE forces the pre-delete copy out; the recreated PUT copy is
  // admitted and serves the final GET.
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
  EXPECT_NEAR(r.costs.Total(), BruteForceOptimum(t, book), 1e-12);
}

TEST(ExactOracleTest, HandFixtureAgreesWithBruteForce) {
  // Mixed fixture: reuse inside break-even (obj 1), reuse beyond it
  // (obj 2), write-then-read (obj 3), delete-before-read (obj 4). Under an
  // op-free book the DP and the enumerator must agree, and the optimum
  // serves the reuse of objects 1 and 3 from the cache.
  const SimDuration far = CrossCloud().StorageEgressBreakEven() + kDay;
  Trace t;
  t.requests = {{0, 1, 1'000'000'000, Op::kGet},
                {0, 2, 2'000'000'000, Op::kGet},
                {0, 3, 500'000'000, Op::kPut},
                {0, 4, 250'000'000, Op::kGet},
                {kHour, 1, 1'000'000'000, Op::kGet},
                {kHour, 4, 250'000'000, Op::kDelete},
                {2 * kHour, 3, 500'000'000, Op::kGet},
                {2 * kHour, 4, 250'000'000, Op::kGet},
                {far, 2, 2'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud().OpFree();
  const ExactOracleResult exact = RunExactOracle(t, book);
  EXPECT_NEAR(exact.costs.Total(), BruteForceOptimum(t, book), 1e-12);
  EXPECT_EQ(exact.osc_hits, 2u);
  EXPECT_EQ(exact.remote_fetches, 5u);
}

TEST(ExactOracleTest, MatchesBruteForceOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Trace t = RandomSmallTrace(seed, 14, 4);
    for (const PriceBook& book :
         {PriceBook::Aws(DeploymentScenario::kCrossCloud),
          PriceBook::Aws(DeploymentScenario::kCrossRegion), CrossCloud().OpFree()}) {
      const ExactOracleResult r = RunExactOracle(t, book);
      const double bf = BruteForceOptimum(t, book);
      EXPECT_NEAR(r.costs.Total(), bf, 1e-9) << "seed " << seed << " book " << book.name;
      EXPECT_NEAR(r.dp_total_usd, bf, 1e-9) << "seed " << seed;
    }
  }
}

TEST(ExactOracleTest, MatchesBruteForceUnderPriceShocks) {
  PriceShock storage_up;
  storage_up.at = 20 * kDay;
  storage_up.storage_scale = 8.0;
  PriceShock egress_down;
  egress_down.at = 60 * kDay;
  egress_down.egress_scale = 0.25;
  const std::vector<PriceShock> shocks = {storage_up, egress_down};
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const Trace t = RandomSmallTrace(seed ^ 0xabcd, 12, 3);
    ExactOracleOptions opts;
    opts.shocks = shocks;
    const ExactOracleResult r = RunExactOracle(t, CrossCloud(), opts);
    const double bf = BruteForceOptimum(t, CrossCloud(), shocks, opts.window);
    EXPECT_NEAR(r.costs.Total(), bf, 1e-9) << "seed " << seed;
  }
}

TEST(ExactOracleTest, ShockedStorageChargedPiecewise) {
  // 1 GB stored across a storage x10 boundary at t=1h: the crossed epochs
  // bill pro-rata at their own rates.
  const uint64_t size = 1'000'000'000;
  PriceShock shock;
  shock.at = kHour;
  shock.storage_scale = 10.0;
  ExactOracleOptions opts;
  opts.window = kHour;  // shock already boundary-aligned
  opts.shocks = {shock};
  Trace t;
  t.requests = {{0, 1, size, Op::kGet}, {2 * kHour, 1, size, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book, opts);
  EXPECT_EQ(r.osc_hits, 1u);  // still far cheaper than a second egress
  const double expected_storage =
      book.StorageCost(size, kHour) + 10.0 * book.StorageCost(size, kHour);
  EXPECT_NEAR(r.costs.Get(CostCategory::kCapacity), expected_storage, 1e-12);
}

TEST(ExactOracleTest, NeverCacheTenantFailsCrossover) {
  // Every object touched exactly once: the optimum equals remote-only and
  // the crossover says "do not deploy a cache".
  Trace t;
  for (int i = 0; i < 20; ++i) {
    t.requests.push_back({i * kMinute, static_cast<ObjectId>(100 + i), 3'000'000, Op::kGet});
  }
  const ExactOracleResult r = RunExactOracle(t, CrossCloud());
  EXPECT_FALSE(r.caching_pays);
  EXPECT_EQ(r.objects_cached, 0u);
  EXPECT_EQ(r.admits, 0u);
  EXPECT_NEAR(r.costs.Total(), r.remote_only_usd, 1e-12);
  EXPECT_EQ(r.objects_total, 20u);
}

TEST(ExactOracleTest, WindowTimelineAndOracleCostAt) {
  ExactOracleOptions opts;
  opts.window = kHour;
  Trace t;
  t.requests = {{30 * kMinute, 1, 1'000'000'000, Op::kGet},
                {90 * kMinute, 2, 1'000'000'000, Op::kGet}};
  const PriceBook book = CrossCloud();
  const ExactOracleResult r = RunExactOracle(t, book, opts);
  ASSERT_EQ(r.window_cost_timeline.size(), 2u);
  // Boundary at 1h: only the first GET has been charged.
  EXPECT_EQ(r.window_cost_timeline[0].first, kHour);
  const double first = book.EgressCost(1'000'000'000) + book.GetCost(1);
  EXPECT_NEAR(r.window_cost_timeline[0].second, first, 1e-12);
  // Closing entry at the trace end carries the full total.
  EXPECT_EQ(r.window_cost_timeline[1].first, 90 * kMinute);
  EXPECT_NEAR(r.window_cost_timeline[1].second, r.costs.Total(), 1e-12);
  EXPECT_EQ(OracleCostAt(r, 0), 0.0);
  EXPECT_EQ(OracleCostAt(r, kHour - 1), 0.0);
  EXPECT_NEAR(OracleCostAt(r, kHour), first, 1e-12);
  EXPECT_NEAR(OracleCostAt(r, 89 * kMinute), first, 1e-12);
  EXPECT_NEAR(OracleCostAt(r, 2 * kHour), r.costs.Total(), 1e-12);
}

TEST(ExactOracleTest, AnnotateRegretFillsRecords) {
  ExactOracleResult oracle;
  oracle.window_cost_timeline = {{100, 1.0}, {200, 2.5}};
  obs::DecisionTrace dt;
  obs::DecisionRecord rec;
  rec.time = 150;
  rec.realized_cost_usd = 1.75;
  dt.Append(rec);
  rec.time = 250;
  rec.realized_cost_usd = 4.0;
  dt.Append(rec);
  AnnotateRegret(&dt, oracle);
  ASSERT_EQ(dt.records().size(), 2u);
  EXPECT_NEAR(dt.records()[0].regret_usd, 0.75, 1e-12);
  EXPECT_NEAR(dt.records()[1].regret_usd, 1.5, 1e-12);
  AnnotateRegret(nullptr, oracle);  // no-op, must not crash
}

TEST(ExactOracleTest, DeterministicAcrossRepeatRuns) {
  const Trace t = RandomSmallTrace(99, 200, 16);
  const ExactOracleResult a = RunExactOracle(t, CrossCloud());
  const ExactOracleResult b = RunExactOracle(t, CrossCloud());
  EXPECT_EQ(a.costs.Total(), b.costs.Total());  // bitwise
  EXPECT_EQ(a.osc_hits, b.osc_hits);
  EXPECT_EQ(a.window_cost_timeline, b.window_cost_timeline);
}

TEST(ExactOracleTest, OrderingExactEqOracularLeqEngineData) {
  // Property: under the op-free basket the DP is Oracular, and it
  // lower-bounds every engine's data cost (egress + capacity + operation) —
  // the engine's policy is one feasible schedule. Random delete-heavy
  // skewed traces; gaps capped so engine runs stay fast.
  for (uint64_t seed : {11u, 22u, 33u}) {
    Rng rng(seed);
    Trace t;
    t.name = "ordering";
    SimTime time = 0;
    for (int i = 0; i < 2000; ++i) {
      time += static_cast<SimTime>(rng.NextBounded(4 * kMinute));
      Request r;
      r.time = time;
      r.id = 1 + rng.NextBounded(rng.NextBounded(64) + 1);
      r.size = 100'000 + rng.NextBounded(8'000'000);
      const uint64_t p = rng.NextBounded(10);
      r.op = p < 7 ? Op::kGet : (p < 9 ? Op::kPut : Op::kDelete);
      t.requests.push_back(r);
    }
    const ExactOracleResult op_free = RunExactOracle(t, CrossCloud().OpFree());
    const ExactOracleResult oracular = Oracular(t, CrossCloud(), nullptr, seed);
    const double exact = op_free.costs.Total();
    EXPECT_EQ(exact, oracular.costs.Total()) << "seed " << seed;
    EXPECT_EQ(op_free.osc_hits, oracular.osc_hits) << "seed " << seed;
    EXPECT_EQ(op_free.mean_stored_bytes, oracular.mean_stored_bytes) << "seed " << seed;

    EngineConfig cfg;
    cfg.approach = Approach::kMacaronNoCluster;
    cfg.measure_latency = false;
    cfg.seed = seed;
    const RunResult engine = ReplayEngine(cfg).Run(t);
    const double engine_data = engine.costs.Get(CostCategory::kEgress) +
                               engine.costs.Get(CostCategory::kCapacity) +
                               engine.costs.Get(CostCategory::kOperation);
    EXPECT_LE(exact, engine_data + 1e-9) << "seed " << seed;
  }
}

}  // namespace
}  // namespace macaron
