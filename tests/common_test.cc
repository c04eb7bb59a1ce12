// Unit tests for src/common: RNG, distributions, statistics, curves.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/curve.h"
#include "src/common/gamma.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/common/zipf.h"

namespace macaron {
namespace {

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoublePositiveNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.NextDoublePositive(), 0.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(3);
  std::unordered_map<uint64_t, int> seen;
  for (int i = 0; i < 10000; ++i) {
    seen[rng.NextBounded(8)]++;
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(11);
  StreamingStats s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(rng.NextExponential(0.5));
  }
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(RngTest, GammaMomentsMatch) {
  Rng rng(13);
  const double shape = 3.0;
  const double scale = 2.0;
  StreamingStats s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(rng.NextGamma(shape, scale));
  }
  EXPECT_NEAR(s.mean(), shape * scale, 0.08);
  EXPECT_NEAR(s.variance(), shape * scale * scale, 0.4);
}

TEST(RngTest, GammaShapeBelowOne) {
  Rng rng(17);
  StreamingStats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.NextGamma(0.5, 1.0);
    EXPECT_GE(x, 0.0);
    s.Add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  StreamingStats s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(rng.NextNormal(5.0, 3.0));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

// --- Zipf ---

TEST(ZipfTest, RanksInRange) {
  Rng rng(31);
  ZipfSampler zipf(1000, 0.8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 1000u);
  }
}

TEST(ZipfTest, SingleItem) {
  Rng rng(1);
  ZipfSampler zipf(1, 0.9);
  EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ZipfTest, AlphaZeroIsUniform) {
  Rng rng(37);
  ZipfSampler zipf(10, 0.0);
  std::unordered_map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (const auto& [rank, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng(41);
  ZipfSampler zipf(10000, 0.9);
  uint64_t head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 100) {
      ++head;
    }
  }
  // Top 1% of ranks should receive far more than 1% of accesses.
  EXPECT_GT(static_cast<double>(head) / n, 0.15);
}

TEST(ZipfTest, HigherAlphaMoreSkewed) {
  Rng rng(43);
  ZipfSampler lo(10000, 0.3);
  ZipfSampler hi(10000, 1.2);
  uint64_t head_lo = 0;
  uint64_t head_hi = 0;
  for (int i = 0; i < 50000; ++i) {
    if (lo.Sample(rng) < 100) {
      ++head_lo;
    }
    if (hi.Sample(rng) < 100) {
      ++head_hi;
    }
  }
  EXPECT_GT(head_hi, head_lo * 2);
}

TEST(ZipfTest, AlphaExactlyOne) {
  Rng rng(47);
  ZipfSampler zipf(1000, 1.0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    EXPECT_LT(r, 1000u);
  }
}

TEST(ZipfTest, FrequencyFollowsPowerLaw) {
  Rng rng(53);
  const double alpha = 1.0;
  ZipfSampler zipf(100000, alpha);
  std::unordered_map<uint64_t, int> counts;
  for (int i = 0; i < 500000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  // Rank 0 vs rank 9 frequency ratio should approximate (10/1)^alpha = 10.
  const double ratio = static_cast<double>(counts[0]) / std::max(1, counts[9]);
  EXPECT_NEAR(ratio, 10.0, 4.0);
}

// --- Gamma fitting ---

TEST(GammaTest, FitMomentsRoundTrip) {
  const GammaDistribution g = GammaDistribution::FitMoments(10.0, 4.0);
  EXPECT_NEAR(g.Mean(), 10.0, 1e-9);
  EXPECT_NEAR(g.Variance(), 4.0, 1e-9);
}

TEST(GammaTest, FitSamplesRecovers) {
  Rng rng(59);
  GammaDistribution truth{4.0, 2.5};
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(truth.Sample(rng));
  }
  const GammaDistribution fit = GammaDistribution::FitSamples(samples);
  EXPECT_NEAR(fit.Mean(), truth.Mean(), 0.2);
  EXPECT_NEAR(fit.Variance(), truth.Variance(), 2.0);
}

TEST(GammaTest, ZeroVarianceDegenerate) {
  const GammaDistribution g = GammaDistribution::FitMoments(5.0, 0.0);
  Rng rng(61);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(g.Sample(rng), 5.0, 0.1);
  }
}

// --- Stats ---

TEST(StreamingStatsTest, Basic) {
  StreamingStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTrackerTest, Quantiles) {
  PercentileTracker p;
  for (int i = 1; i <= 100; ++i) {
    p.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(p.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(p.Mean(), 50.5, 1e-9);
}

TEST(PercentileTrackerTest, EmptyReturnsZero) {
  PercentileTracker p;
  EXPECT_EQ(p.Quantile(0.5), 0.0);
  EXPECT_EQ(p.Mean(), 0.0);
}

TEST(PercentileTrackerTest, AppendKeepsOrderAndEmptiesTheSource) {
  PercentileTracker dst;
  dst.Add(3.0);
  dst.Add(1.0);
  PercentileTracker src;
  src.Add(2.0);
  src.Add(5.0);
  dst.Append(std::move(src));
  EXPECT_EQ(dst.samples(), (std::vector<double>{3.0, 1.0, 2.0, 5.0}));
  EXPECT_EQ(src.count(), 0u);
  EXPECT_EQ(src.samples().capacity(), 0u);
  EXPECT_NEAR(dst.Quantile(0.5), 2.5, 1e-12);
}

TEST(PercentileTrackerTest, AppendToEmptyTakesTheBuffer) {
  PercentileTracker src;
  src.Add(4.0);
  src.Add(6.0);
  const double* buffer = src.samples().data();
  PercentileTracker dst;
  dst.Append(std::move(src));
  EXPECT_EQ(dst.samples().data(), buffer);
  EXPECT_EQ(dst.samples(), (std::vector<double>{4.0, 6.0}));
  EXPECT_EQ(src.count(), 0u);
}

// --- Curve ---

TEST(CurveTest, InterpolationAndClamping) {
  Curve c({0.0, 10.0, 20.0}, {0.0, 100.0, 100.0});
  EXPECT_DOUBLE_EQ(c.Value(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.Value(5.0), 50.0);
  EXPECT_DOUBLE_EQ(c.Value(15.0), 100.0);
  EXPECT_DOUBLE_EQ(c.Value(25.0), 100.0);
}

TEST(CurveTest, ArgMinFindsMinimum) {
  Curve c({1.0, 2.0, 3.0, 4.0}, {5.0, 2.0, 7.0, 2.0});
  EXPECT_EQ(c.ArgMin(), 1u);  // first minimum on ties
}

TEST(CurveTest, FirstBelow) {
  Curve c({1.0, 2.0, 3.0}, {9.0, 5.0, 1.0});
  EXPECT_EQ(c.FirstBelow(6.0), 1u);
  EXPECT_EQ(c.FirstBelow(0.5), 3u);  // none
}

TEST(CurveTest, KneeOfElbowCurve) {
  // A sharp elbow at x=2: steep drop then flat.
  Curve c({0.0, 1.0, 2.0, 3.0, 4.0, 5.0}, {100.0, 50.0, 10.0, 9.0, 8.0, 7.0});
  const size_t knee = c.KneeIndex();
  EXPECT_GE(knee, 1u);
  EXPECT_LE(knee, 2u);
}

TEST(CurveTest, ScaledAndPlus) {
  Curve a({1.0, 2.0}, {1.0, 2.0});
  Curve b({1.0, 2.0}, {10.0, 20.0});
  const Curve sum = a.Scaled(2.0).Plus(b);
  EXPECT_DOUBLE_EQ(sum.y(0), 12.0);
  EXPECT_DOUBLE_EQ(sum.y(1), 24.0);
}

TEST(DecayedCurveAverageTest, NoDecayIsWeightedAverage) {
  DecayedCurveAverage avg(1.0);
  avg.Add(Curve({1.0}, {10.0}), 1.0, 0.0);
  avg.Add(Curve({1.0}, {20.0}), 3.0, 1.0);
  EXPECT_NEAR(avg.Average().y(0), (10.0 + 60.0) / 4.0, 1e-9);
}

TEST(DecayedCurveAverageTest, DecayFadesOldKnowledge) {
  DecayedCurveAverage avg(0.2);
  avg.Add(Curve({1.0}, {100.0}), 1.0, 0.0);
  // After 2 days of decay, old weight is 0.04; a fresh equal-weight window
  // dominates.
  avg.Add(Curve({1.0}, {0.0}), 1.0, 2.0);
  EXPECT_LT(avg.Average().y(0), 5.0);
}

TEST(DecayedCurveAverageTest, FullDecayVersusNone) {
  DecayedCurveAverage none(1.0);
  DecayedCurveAverage fast(0.1);
  for (int day = 0; day < 5; ++day) {
    const double v = day < 4 ? 100.0 : 0.0;
    none.Add(Curve({1.0}, {v}), 1.0, 1.0);
    fast.Add(Curve({1.0}, {v}), 1.0, 1.0);
  }
  EXPECT_GT(none.Average().y(0), fast.Average().y(0));
}

// --- Hash / units / time ---

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Consecutive ids should land far apart.
  uint64_t close = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if ((Mix64(i) >> 56) == (Mix64(i + 1) >> 56)) {
      ++close;
    }
  }
  EXPECT_LT(close, 20u);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(BytesToGB(1'000'000'000ull), 1.0);
  EXPECT_EQ(kTB, 1000ull * kGB);
}

TEST(SimTimeTest, DurationHelpers) {
  EXPECT_DOUBLE_EQ(DurationHours(2 * kHour), 2.0);
  EXPECT_DOUBLE_EQ(DurationMonths(kBillingMonth), 1.0);
  EXPECT_DOUBLE_EQ(DurationDays(36 * kHour), 1.5);
  EXPECT_DOUBLE_EQ(DurationSeconds(1500), 1.5);
}

}  // namespace
}  // namespace macaron
