// Tests for the cloud substrate: latency ground truth, the fitted Gamma
// generator (Appendix A.5), and the discrete-event queue.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/cloudsim/event_queue.h"
#include "src/cloudsim/latency.h"
#include "src/common/stats.h"

namespace macaron {
namespace {

// --- GroundTruthLatency ---

TEST(GroundTruthLatencyTest, TierOrderingHoldsForAllSizes) {
  for (LatencyScenario s : {LatencyScenario::kCrossCloudUs, LatencyScenario::kCrossRegionUs,
                            LatencyScenario::kCrossRegionUsEu}) {
    GroundTruthLatency truth(s);
    for (uint64_t size : {1'000ull, 100'000ull, 4'000'000ull}) {
      EXPECT_LT(truth.MeanMs(DataSource::kCacheCluster, size),
                truth.MeanMs(DataSource::kOsc, size));
      EXPECT_LT(truth.MeanMs(DataSource::kOsc, size),
                truth.MeanMs(DataSource::kRemoteLake, size));
    }
  }
}

TEST(GroundTruthLatencyTest, MatchesSection2Measurements) {
  // §2: 1 KB from local object storage takes 10s of ms; cross-region 100s.
  GroundTruthLatency truth(LatencyScenario::kCrossRegionUs);
  const double local = truth.MeanMs(DataSource::kOsc, 1000);
  const double remote = truth.MeanMs(DataSource::kRemoteLake, 1000);
  EXPECT_GT(local, 10.0);
  EXPECT_LT(local, 100.0);
  EXPECT_GT(remote, 100.0);
  EXPECT_LT(remote, 400.0);
}

TEST(GroundTruthLatencyTest, EuropeSlowerThanUs) {
  GroundTruthLatency us(LatencyScenario::kCrossRegionUs);
  GroundTruthLatency eu(LatencyScenario::kCrossRegionUsEu);
  EXPECT_GT(eu.MeanMs(DataSource::kRemoteLake, 1000),
            us.MeanMs(DataSource::kRemoteLake, 1000) * 1.5);
}

TEST(GroundTruthLatencyTest, LargerObjectsSlower) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  for (int s = 0; s < static_cast<int>(DataSource::kNumSources); ++s) {
    const DataSource source = static_cast<DataSource>(s);
    EXPECT_GT(truth.MeanMs(source, 4'000'000), truth.MeanMs(source, 1'000)) <<
        DataSourceName(source);
  }
}

TEST(GroundTruthLatencyTest, SampleMeanMatchesAnalyticMean) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  Rng rng(5);
  StreamingStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(truth.SampleMs(DataSource::kRemoteLake, 500'000, rng));
  }
  EXPECT_NEAR(stats.mean() / truth.MeanMs(DataSource::kRemoteLake, 500'000), 1.0, 0.03);
}

TEST(GroundTruthLatencyTest, SamplesAreNonNegativeAndVary) {
  GroundTruthLatency truth(LatencyScenario::kCrossRegionUs);
  Rng rng(6);
  StreamingStats stats;
  for (int i = 0; i < 1000; ++i) {
    const double ms = truth.SampleMs(DataSource::kOsc, 10'000, rng);
    EXPECT_GE(ms, 0.0);
    stats.Add(ms);
  }
  EXPECT_GT(stats.stddev(), 0.5);
}

// --- FittedLatencyGenerator ---

TEST(FittedLatencyGeneratorTest, BucketIndexPicksNearestLogBucket) {
  const auto& sizes = FittedLatencyGenerator::BucketSizes();
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(FittedLatencyGenerator::BucketIndex(sizes[i]), i);
  }
  EXPECT_EQ(FittedLatencyGenerator::BucketIndex(0), 0u);
  EXPECT_EQ(FittedLatencyGenerator::BucketIndex(1ull << 40), sizes.size() - 1);
}

TEST(FittedLatencyGeneratorTest, FittedMeansTrackGroundTruth) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 2000, 7);
  for (int s = 0; s < static_cast<int>(DataSource::kNumSources); ++s) {
    const DataSource source = static_cast<DataSource>(s);
    for (uint64_t size : FittedLatencyGenerator::BucketSizes()) {
      const double err =
          std::abs(gen.FittedMeanMs(source, size) / truth.MeanMs(source, size) - 1.0);
      EXPECT_LT(err, 0.10) << DataSourceName(source) << " @" << size;
    }
  }
}

TEST(FittedLatencyGeneratorTest, DeterministicForSeed) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator a(truth, 500, 9);
  FittedLatencyGenerator b(truth, 500, 9);
  EXPECT_DOUBLE_EQ(a.FittedMeanMs(DataSource::kOsc, 10'000),
                   b.FittedMeanMs(DataSource::kOsc, 10'000));
}

TEST(FittedLatencyGeneratorTest, ImplementsLatencySamplerInterface) {
  GroundTruthLatency truth(LatencyScenario::kCrossRegionUs);
  FittedLatencyGenerator gen(truth, 200, 10);
  const LatencySampler* sampler = &gen;
  Rng rng(11);
  EXPECT_GT(sampler->SampleMs(DataSource::kRemoteLake, 1000, rng), 0.0);
}

// --- EventQueue ---

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&](SimTime) { order.push_back(3); });
  q.Schedule(10, [&](SimTime) { order.push_back(1); });
  q.Schedule(20, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&](SimTime) { order.push_back(1); });
  q.Schedule(10, [&](SimTime) { order.push_back(2); });
  q.Schedule(10, [&](SimTime) { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.Schedule(10, [&](SimTime) { ++ran; });
  q.Schedule(20, [&](SimTime) { ++ran; });
  q.Schedule(30, [&](SimTime) { ++ran; });
  q.RunUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.now(), 20);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.Schedule(10, [&](SimTime now) {
    times.push_back(now);
    q.Schedule(now + 5, [&](SimTime later) { times.push_back(later); });
  });
  q.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueueTest, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.RunNext());
  EXPECT_TRUE(q.empty());
}

// A callback that counts its copies (moves are free), standing in for the
// event engine's fill closure.
struct CopyCountingCallback {
  int* copies;
  int* calls;
  CopyCountingCallback(int* copies_in, int* calls_in) : copies(copies_in), calls(calls_in) {}
  CopyCountingCallback(const CopyCountingCallback& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCountingCallback(CopyCountingCallback&&) = default;
  void operator()(SimTime) const { ++*calls; }
};

TEST(EventQueueTest, RunNextMovesTheCallbackOut) {
  EventQueue q;
  int copies = 0;
  int calls = 0;
  q.Schedule(20, CopyCountingCallback(&copies, &calls));
  q.Schedule(10, CopyCountingCallback(&copies, &calls));  // grows and sifts the heap
  EXPECT_TRUE(q.RunNext());
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace macaron
