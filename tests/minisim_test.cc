// Tests for miniature simulation: grids, MRC/BMC accuracy against full
// simulation (§5.2 reports MAE ~0.0023 / MAPE ~0.015), ALC behaviour, and
// TTL curves.

#include <gtest/gtest.h>

#include <cmath>

#include "src/cache/lru_cache.h"
#include "src/cloudsim/latency.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/minisim/ttl_bank.h"
#include "src/trace/synthetic.h"
#include "tests/feed_columns.h"

namespace macaron {
namespace {

TEST(SizeGridTest, SpansRangeStrictlyIncreasing) {
  const auto grid = UniformSizeGrid(100, 1000, 10);
  ASSERT_EQ(grid.size(), 10u);
  EXPECT_EQ(grid.front(), 100u);
  EXPECT_EQ(grid.back(), 1000u);
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

TEST(SizeGridTest, DegenerateRangeStillValid) {
  const auto grid = UniformSizeGrid(100, 50, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_EQ(grid.front(), 100u);
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

// Builds a Zipf GET-only request stream over `objects` 1KB objects.
Trace ZipfStream(uint64_t objects, double alpha, uint64_t count, uint64_t seed) {
  Trace t;
  Rng rng(seed);
  ZipfSampler zipf(objects, alpha);
  for (uint64_t i = 0; i < count; ++i) {
    t.requests.push_back(
        {static_cast<SimTime>(i), zipf.Sample(rng), 1000, Op::kGet});
  }
  return t;
}

TEST(MrcBankTest, MrcIsMonotoneNonIncreasing) {
  const Trace t = ZipfStream(5000, 0.8, 50000, 1);
  MrcBank bank(UniformSizeGrid(10'000, 5'000'000, 20), 1.0, 0);
  FeedColumns(bank, t.requests);
  const WindowCurves w = bank.EndWindow();
  for (size_t i = 1; i < w.mrc.size(); ++i) {
    EXPECT_LE(w.mrc.y(i), w.mrc.y(i - 1) + 1e-9) << i;
  }
}

TEST(MrcBankTest, FullCapacityOnlyCompulsoryMisses) {
  const Trace t = ZipfStream(1000, 0.5, 20000, 2);
  MrcBank bank(UniformSizeGrid(100'000, 2'000'000, 8), 1.0, 0);
  FeedColumns(bank, t.requests);
  const WindowCurves w = bank.EndWindow();
  // Largest capacity (2x dataset) never evicts: misses = unique objects.
  EXPECT_NEAR(w.mrc.y(w.mrc.size() - 1), 1000.0 / 20000.0, 0.001);
}

TEST(MrcBankTest, SampledMrcMatchesFullSimulation) {
  // The §5.2 accuracy claim: miniature simulation MRC within small error of
  // full simulation.
  const Trace t = ZipfStream(20000, 0.7, 200000, 3);
  const auto grid = UniformSizeGrid(500'000, 20'000'000, 16);
  MrcBank full(grid, 1.0, 0);
  MrcBank mini(grid, 0.1, 99);
  FeedColumns(full, t.requests);
  FeedColumns(mini, t.requests);
  const WindowCurves wf = full.EndWindow();
  const WindowCurves wm = mini.EndWindow();
  double mae = 0.0;
  for (size_t i = 0; i < grid.size(); ++i) {
    mae += std::abs(wf.mrc.y(i) - wm.mrc.y(i));
  }
  mae /= static_cast<double>(grid.size());
  EXPECT_LT(mae, 0.03);
}

TEST(MrcBankTest, SampledBmcMatchesFullSimulation) {
  const Trace t = ZipfStream(20000, 0.7, 200000, 4);
  const auto grid = UniformSizeGrid(500'000, 20'000'000, 16);
  MrcBank full(grid, 1.0, 0);
  MrcBank mini(grid, 0.1, 7);
  FeedColumns(full, t.requests);
  FeedColumns(mini, t.requests);
  const WindowCurves wf = full.EndWindow();
  const WindowCurves wm = mini.EndWindow();
  double mape = 0.0;
  int n = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (wf.bmc.y(i) > 0) {
      mape += std::abs(wf.bmc.y(i) - wm.bmc.y(i)) / wf.bmc.y(i);
      ++n;
    }
  }
  mape /= std::max(1, n);
  EXPECT_LT(mape, 0.10);
}

TEST(MrcBankTest, StatePersistsAcrossWindows) {
  const Trace t = ZipfStream(1000, 0.5, 5000, 5);
  MrcBank bank(UniformSizeGrid(100'000, 2'000'000, 4), 1.0, 0);
  FeedColumns(bank, t.requests);
  bank.EndWindow();
  // Re-run the same stream: the cache is warm, misses should drop sharply.
  FeedColumns(bank, t.requests);
  const WindowCurves w2 = bank.EndWindow();
  EXPECT_LT(w2.mrc.y(w2.mrc.size() - 1), 0.01);
}

TEST(MrcBankTest, DeletesEvictFromMiniCaches) {
  MrcBank bank(UniformSizeGrid(1000, 10000, 3), 1.0, 0);
  FeedColumns(bank, {
                        {0, 1, 100, Op::kPut},
                        {1, 1, 100, Op::kDelete},
                        {2, 1, 100, Op::kGet},  // must miss everywhere
                    });
  const WindowCurves w = bank.EndWindow();
  for (size_t i = 0; i < w.mrc.size(); ++i) {
    EXPECT_GT(w.bmc.y(i), 0.0);
  }
}

// --- ALC bank ---

TEST(AlcBankTest, LatencyDecreasesWithClusterCapacity) {
  const Trace t = ZipfStream(2000, 0.9, 40000, 6);
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 1);
  AlcBank bank(UniformSizeGrid(20'000, 2'000'000, 10), /*osc=*/2'000'000, 1.0, 0, &gen, 11);
  FeedColumns(bank, t.requests);
  const AlcWindow w = bank.EndWindow();
  // More DRAM -> no worse average latency (strictly better for skewed load).
  EXPECT_LT(w.alc.y(w.alc.size() - 1), w.alc.y(0));
}

TEST(AlcBankTest, LevelCountsAddUp) {
  const Trace t = ZipfStream(500, 0.5, 5000, 7);
  GroundTruthLatency truth(LatencyScenario::kCrossRegionUs);
  FittedLatencyGenerator gen(truth, 200, 2);
  AlcBank bank(UniformSizeGrid(10'000, 500'000, 5), 500'000, 1.0, 0, &gen, 12);
  FeedColumns(bank, t.requests);
  const AlcWindow w = bank.EndWindow();
  for (const AlcLevelCounts& c : w.level_counts) {
    EXPECT_EQ(c.total(), 5000u);
  }
}

TEST(AlcBankTest, RequestDelayCountsDuplicateBurstsAsDelayed) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 3);
  AlcBank bank({1'000'000}, 1'000'000, 1.0, 0, &gen, 13);
  // Three accesses to the same cold object within 1 ms: the first is a
  // remote miss, the rest coalesce (remote latency, no second fetch).
  FeedColumns(bank, {{0, 42, 1000, Op::kGet}, {0, 42, 1000, Op::kGet}, {1, 42, 1000, Op::kGet}});
  const AlcWindow w = bank.EndWindow();
  EXPECT_EQ(w.level_counts[0].remote_misses, 1u);
  EXPECT_EQ(w.level_counts[0].delayed_hits, 2u);
}

TEST(AlcBankTest, OscCapacityResizeTakesEffect) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 4);
  AlcBank bank({1000}, 1'000'000, 1.0, 0, &gen, 14);
  FeedColumns(bank, {
                        {0, 1, 50000, Op::kGet},
                        {1000000, 1, 50000, Op::kGet},  // OSC hit (cluster too small)
                    });
  AlcWindow w = bank.EndWindow();
  EXPECT_EQ(w.level_counts[0].osc_hits, 1u);
  bank.SetOscCapacity(1);  // shrink: object no longer fits
  FeedColumns(bank, {{2000000, 2, 50000, Op::kGet}, {4000000, 2, 50000, Op::kGet}});
  w = bank.EndWindow();
  EXPECT_EQ(w.level_counts[0].osc_hits, 0u);
}

// --- TTL bank ---

TEST(TtlBankTest, StandardGridShape) {
  const auto grid = StandardTtlGrid(7 * kDay);
  ASSERT_GE(grid.size(), 3u);
  EXPECT_EQ(grid[0], kHour);
  EXPECT_EQ(grid[1], 6 * kHour);
  EXPECT_EQ(grid[2], 12 * kHour);
  EXPECT_EQ(grid.back(), 7 * kDay);
  for (size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

TEST(TtlBankTest, LongerTtlFewerMisses) {
  TtlBank bank({kHour, kDay}, 1.0, 0);
  // Access each object twice, 2 hours apart: TTL=1h misses the re-read,
  // TTL=1d hits it.
  std::vector<Request> reqs;
  for (ObjectId id = 0; id < 100; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 1000, Op::kGet});
  }
  for (ObjectId id = 0; id < 100; ++id) {
    reqs.push_back({2 * kHour + static_cast<SimTime>(id), id, 1000, Op::kGet});
  }
  FeedColumns(bank, reqs);
  const TtlWindowCurves w = bank.EndWindow(3 * kHour);
  EXPECT_GT(w.mrc.y(0), w.mrc.y(1));
  EXPECT_GT(w.bmc.y(0), w.bmc.y(1));
}

TEST(TtlBankTest, LongerTtlMoreResidentBytes) {
  TtlBank bank({kHour, kDay}, 1.0, 0);
  std::vector<Request> reqs;
  for (ObjectId id = 0; id < 100; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 1000, Op::kGet});
  }
  FeedColumns(bank, reqs);
  const TtlWindowCurves w = bank.EndWindow(kDay);
  EXPECT_LT(w.capacity.y(0), w.capacity.y(1));
}

// --- Empty analysis windows ---
//
// A window can legitimately see no requests, no GETs (PUT/DELETE only), or
// no sampled requests at all (low ratio, few objects). The estimators must
// return zeroed curves — never NaN or infinity from dividing by a zero
// sampled-GET count — because these values feed straight into
// ExpectedCostCurve/OptimizeCapacity.

void ExpectAllFinite(const Curve& c, double expected) {
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_FALSE(std::isnan(c.y(i))) << i;
    ASSERT_FALSE(std::isinf(c.y(i))) << i;
    EXPECT_EQ(c.y(i), expected) << i;
  }
}

TEST(MrcBankTest, EmptyWindowProducesZeroCurves) {
  MrcBank bank(UniformSizeGrid(1000, 10000, 4), 0.1, 0);
  const WindowCurves w = bank.EndWindow();
  EXPECT_EQ(w.sampled_gets, 0u);
  ExpectAllFinite(w.mrc, 0.0);
  ExpectAllFinite(w.bmc, 0.0);
}

TEST(MrcBankTest, PutOnlyWindowProducesZeroCurves) {
  // window_gets_ == 0 while requests (and sampled requests) are nonzero.
  MrcBank bank(UniformSizeGrid(1000, 10000, 4), 1.0, 0);
  std::vector<Request> reqs;
  for (ObjectId id = 0; id < 50; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 100, Op::kPut});
  }
  FeedColumns(bank, reqs);
  const WindowCurves w = bank.EndWindow();
  EXPECT_EQ(w.sampled_gets, 0u);
  EXPECT_EQ(w.window_requests, 50u);
  ExpectAllFinite(w.mrc, 0.0);
  ExpectAllFinite(w.bmc, 0.0);
}

TEST(MrcBankTest, SamplerAdmitsNothingProducesZeroCurves) {
  // GETs arrive but the spatial sampler admits none of them
  // (window_sampled_gets_ == 0 with window_gets_ > 0). Ids start above the
  // salt: id == salt hashes to Mix64(0) == 0, which every ratio admits.
  MrcBank bank(UniformSizeGrid(1000, 10000, 4), 1e-9, 1);
  std::vector<Request> reqs;
  for (ObjectId id = 1000; id < 1200; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 100, Op::kGet});
  }
  FeedColumns(bank, reqs);
  const WindowCurves w = bank.EndWindow();
  EXPECT_EQ(w.sampled_gets, 0u);
  ExpectAllFinite(w.mrc, 0.0);
  ExpectAllFinite(w.bmc, 0.0);
}

TEST(TtlBankTest, EmptyWindowProducesZeroCurves) {
  TtlBank bank({kHour, kDay}, 0.1, 0);
  const TtlWindowCurves w = bank.EndWindow(15 * kMinute);
  EXPECT_EQ(w.sampled_gets, 0u);
  ExpectAllFinite(w.mrc, 0.0);
  ExpectAllFinite(w.bmc, 0.0);
  ExpectAllFinite(w.capacity, 0.0);
}

TEST(TtlBankTest, PutOnlyWindowHasFiniteCapacityCurve) {
  TtlBank bank({kHour, kDay}, 1.0, 0);
  std::vector<Request> reqs;
  for (ObjectId id = 0; id < 20; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 1000, Op::kPut});
  }
  FeedColumns(bank, reqs);
  const TtlWindowCurves w = bank.EndWindow(kHour);
  ExpectAllFinite(w.mrc, 0.0);
  ExpectAllFinite(w.bmc, 0.0);
  // PUTs still occupy capacity; the curve must be finite and positive.
  for (size_t i = 0; i < w.capacity.size(); ++i) {
    ASSERT_FALSE(std::isnan(w.capacity.y(i))) << i;
    ASSERT_FALSE(std::isinf(w.capacity.y(i))) << i;
    EXPECT_GT(w.capacity.y(i), 0.0) << i;
  }
}

TEST(AlcBankTest, EmptyWindowProducesZeroLatencyCurve) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 8);
  AlcBank bank(UniformSizeGrid(1000, 10000, 4), 10000, 0.1, 0, &gen, 15);
  const AlcWindow w = bank.EndWindow();
  EXPECT_EQ(w.sampled_gets, 0u);
  ExpectAllFinite(w.alc, 0.0);
}

TEST(TtlBankTest, CapacityScalesBySamplingRatio) {
  TtlBank full({kDay}, 1.0, 0);
  TtlBank half({kDay}, 0.5, 123);
  std::vector<Request> reqs;
  for (ObjectId id = 0; id < 4000; ++id) {
    reqs.push_back({static_cast<SimTime>(id), id, 1000, Op::kGet});
  }
  FeedColumns(full, reqs);
  FeedColumns(half, reqs);
  const auto wf = full.EndWindow(kHour);
  const auto wh = half.EndWindow(kHour);
  // Scaled-up sampled capacity approximates the full value.
  EXPECT_NEAR(wh.capacity.y(0) / wf.capacity.y(0), 1.0, 0.15);
}

}  // namespace
}  // namespace macaron
