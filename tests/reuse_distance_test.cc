// Tests for the exact byte-weighted reuse-distance analyzer, including a
// brute-force cross-check against a real LRU cache.

#include <gtest/gtest.h>

#include "src/cache/lru_cache.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "bench/reuse_distance.h"

namespace macaron {
namespace {

TEST(ReuseDistanceTest, FirstAccessIsCompulsory) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kGet});
  EXPECT_EQ(a.compulsory_misses(), 1u);
  const auto curves = a.Compute({1000});
  EXPECT_DOUBLE_EQ(curves.mrc.y(0), 1.0);
  EXPECT_DOUBLE_EQ(curves.bmc.y(0), 100.0);
}

TEST(ReuseDistanceTest, ImmediateReaccessHitsAtOwnSize) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kGet});
  a.Process({1, 1, 100, Op::kGet});
  // Second access: distance = 100 (itself). Hits at capacity >= 100.
  const auto curves = a.Compute({50, 100, 1000});
  EXPECT_DOUBLE_EQ(curves.mrc.y(0), 1.0);   // 50B: both miss
  EXPECT_DOUBLE_EQ(curves.mrc.y(1), 0.5);   // 100B: second hits
  EXPECT_DOUBLE_EQ(curves.mrc.y(2), 0.5);
}

TEST(ReuseDistanceTest, InterveningBytesCount) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kGet});
  a.Process({1, 2, 300, Op::kGet});
  a.Process({2, 1, 100, Op::kGet});  // distance = 300 + 100 = 400
  const auto curves = a.Compute({399, 400});
  // At 399: all three accesses miss (two compulsory + the re-access).
  EXPECT_DOUBLE_EQ(curves.mrc.y(0), 1.0);
  // At 400: the re-access hits.
  EXPECT_NEAR(curves.mrc.y(1), 2.0 / 3.0, 1e-12);
}

TEST(ReuseDistanceTest, DuplicateInterveningObjectCountsOnce) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kGet});
  a.Process({1, 2, 300, Op::kGet});
  a.Process({2, 2, 300, Op::kGet});  // same object twice
  a.Process({3, 1, 100, Op::kGet});  // distance still 400, not 700
  const auto curves = a.Compute({400});
  // Accesses: c, c, hit(300<=400), hit(400<=400) -> mrc = 0.5.
  EXPECT_DOUBLE_EQ(curves.mrc.y(0), 0.5);
}

TEST(ReuseDistanceTest, PutsPopulateTheStack) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kPut});
  a.Process({1, 1, 100, Op::kGet});  // distance 100: a hit, not compulsory
  EXPECT_EQ(a.compulsory_misses(), 0u);
  const auto curves = a.Compute({100});
  EXPECT_DOUBLE_EQ(curves.mrc.y(0), 0.0);
}

TEST(ReuseDistanceTest, DeleteResetsHistory) {
  ReuseDistanceAnalyzer a;
  a.Process({0, 1, 100, Op::kGet});
  a.Process({1, 1, 100, Op::kDelete});
  a.Process({2, 1, 100, Op::kGet});  // compulsory again
  EXPECT_EQ(a.compulsory_misses(), 2u);
}

TEST(ReuseDistanceTest, BmcIsMonotoneNonIncreasing) {
  ReuseDistanceAnalyzer a;
  Rng rng(7);
  ZipfSampler zipf(1000, 0.7);
  for (int i = 0; i < 20000; ++i) {
    a.Process({i, zipf.Sample(rng), 1000 + rng.NextBounded(5000), Op::kGet});
  }
  const auto curves = a.Compute({10'000, 100'000, 1'000'000, 5'000'000});
  for (size_t i = 1; i < curves.bmc.size(); ++i) {
    EXPECT_LE(curves.bmc.y(i), curves.bmc.y(i - 1));
    EXPECT_LE(curves.mrc.y(i), curves.mrc.y(i - 1));
  }
}

TEST(ReuseDistanceTest, MatchesRealLruCacheExactly) {
  // Gold cross-check: for fixed-size objects the byte stack distance
  // predicts a real LRU cache's hits exactly.
  Rng rng(13);
  ZipfSampler zipf(500, 0.8);
  constexpr uint64_t kObj = 1000;
  const std::vector<uint64_t> capacities = {10 * kObj, 50 * kObj, 200 * kObj};
  ReuseDistanceAnalyzer analyzer;
  std::vector<LruCache> caches;
  std::vector<uint64_t> misses(capacities.size(), 0);
  for (uint64_t c : capacities) {
    caches.emplace_back(c);
  }
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const ObjectId id = zipf.Sample(rng);
    analyzer.Process({i, id, kObj, Op::kGet});
    for (size_t k = 0; k < caches.size(); ++k) {
      if (!caches[k].Get(id)) {
        ++misses[k];
        caches[k].Put(id, kObj);
      }
    }
  }
  const auto curves = analyzer.Compute(capacities);
  for (size_t k = 0; k < capacities.size(); ++k) {
    EXPECT_NEAR(curves.mrc.y(k), static_cast<double>(misses[k]) / n, 1e-12) << k;
  }
}

TEST(ReuseDistanceTest, VariableSizesCloseToRealLru)  {
  // With variable sizes the stack model and a real LRU can differ slightly
  // at eviction boundaries; they must still agree closely.
  Rng rng(17);
  ZipfSampler zipf(800, 0.6);
  const uint64_t capacity = 300'000;
  ReuseDistanceAnalyzer analyzer;
  LruCache cache(capacity);
  uint64_t misses = 0;
  const int n = 40000;
  std::vector<uint64_t> sizes(800);
  for (auto& s : sizes) {
    s = 500 + rng.NextBounded(2000);
  }
  for (int i = 0; i < n; ++i) {
    const ObjectId id = zipf.Sample(rng);
    analyzer.Process({i, id, sizes[id], Op::kGet});
    if (!cache.Get(id)) {
      ++misses;
      cache.Put(id, sizes[id]);
    }
  }
  const auto curves = analyzer.Compute({capacity});
  EXPECT_NEAR(curves.mrc.y(0), static_cast<double>(misses) / n, 0.01);
}

TEST(ReuseDistanceTest, FenwickGrowthKeepsCorrectness) {
  // Enough accesses to force several tree rebuilds.
  ReuseDistanceAnalyzer a;
  for (int round = 0; round < 3; ++round) {
    for (ObjectId id = 0; id < 300; ++id) {
      a.Process({round * 300 + static_cast<SimTime>(id), id, 10, Op::kGet});
    }
  }
  // After the first round every access is a hit at capacity >= 3000.
  const auto curves = a.Compute({3000});
  EXPECT_NEAR(curves.mrc.y(0), 300.0 / 900.0, 1e-12);
}

}  // namespace
}  // namespace macaron
