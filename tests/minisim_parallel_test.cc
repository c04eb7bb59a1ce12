// Determinism tests for the parallel miniature-simulation engine: replaying
// grid points on a thread pool must produce curves bit-identical to
// sequential replay, for any thread count, across batch boundaries and
// multiple windows (the headline guarantee of the batched fan-out design —
// sampling and window counters happen at ingest and latency draws when a
// batch is prepared, all on the calling thread in stream order, so replay
// touches only private per-grid-point state).

#include <gtest/gtest.h>

#include "src/cloudsim/latency.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/zipf.h"
#include "src/controller/analyzer.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/minisim/ttl_bank.h"
#include "src/trace/request_source.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// A Zipf stream with PUTs and DELETEs mixed in, long enough that at the
// sampling ratios below the sampled stream crosses several 4096-request
// batch boundaries (exercising mid-window flushes, not just EndWindow).
Trace MixedStream(uint64_t objects, double alpha, uint64_t count, SimTime step, uint64_t seed) {
  Trace t;
  Rng rng(seed);
  ZipfSampler zipf(objects, alpha);
  for (uint64_t i = 0; i < count; ++i) {
    const ObjectId id = zipf.Sample(rng);
    Op op = Op::kGet;
    if (i % 16 == 7) {
      op = Op::kPut;
    } else if (i % 16 == 13) {
      op = Op::kDelete;
    }
    t.requests.push_back(
        {static_cast<SimTime>(i * step), id, 500 + id % 1500, op});
  }
  return t;
}

void ExpectCurvesIdentical(const Curve& a, const Curve& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.x(i), b.x(i)) << "x[" << i << "]";
    EXPECT_EQ(a.y(i), b.y(i)) << "y[" << i << "]";  // exact: bit-identical
  }
}

// LRU banks replay through the one-pass timeline (one pool task per batch
// at most); S3-FIFO banks fan grid points out across the pool. Both must
// match sequential replay.
constexpr EvictionPolicyKind kMrcPolicies[] = {EvictionPolicyKind::kLru,
                                               EvictionPolicyKind::kS3Fifo};

TEST(ParallelDeterminismTest, MrcBankBitIdenticalToSequential) {
  const ReplayBatch chunk = ToChunk(MixedStream(20000, 0.8, 60000, 1, 21).requests);
  const auto grid = UniformSizeGrid(100'000, 10'000'000, 16);
  for (const EvictionPolicyKind kind : kMrcPolicies) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    MrcBank seq(grid, 0.5, 17, kind);
    MrcBank par(grid, 0.5, 17, kind);
    ThreadPool pool(4);
    par.SetExecution(&pool, /*async=*/false);
    // Two windows, each with ~15k sampled requests (several batch flushes).
    for (size_t w = 0; w < 2; ++w) {
      seq.ProcessColumns(chunk, w * 30000, (w + 1) * 30000);
      par.ProcessColumns(chunk, w * 30000, (w + 1) * 30000);
      const WindowCurves ws = seq.EndWindow();
      const WindowCurves wp = par.EndWindow();
      EXPECT_EQ(ws.sampled_gets, wp.sampled_gets);
      EXPECT_EQ(ws.window_requests, wp.window_requests);
      ExpectCurvesIdentical(ws.mrc, wp.mrc);
      ExpectCurvesIdentical(ws.bmc, wp.bmc);
    }
  }
}

TEST(ParallelDeterminismTest, MrcBankInvariantAcrossThreadCounts) {
  const ReplayBatch chunk = ToChunk(MixedStream(5000, 0.7, 20000, 1, 22).requests);
  const auto grid = UniformSizeGrid(50'000, 5'000'000, 12);
  for (const EvictionPolicyKind kind : kMrcPolicies) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    MrcBank reference(grid, 0.5, 3, kind);
    reference.ProcessColumns(chunk, 0, chunk.size());
    const WindowCurves ref = reference.EndWindow();
    for (int threads : {2, 3, 8}) {
      MrcBank bank(grid, 0.5, 3, kind);
      ThreadPool pool(threads);
      bank.SetExecution(&pool, /*async=*/false);
      bank.ProcessColumns(chunk, 0, chunk.size());
      const WindowCurves w = bank.EndWindow();
      ExpectCurvesIdentical(ref.mrc, w.mrc);
      ExpectCurvesIdentical(ref.bmc, w.bmc);
    }
  }
}

TEST(ParallelDeterminismTest, TtlBankBitIdenticalToSequential) {
  // Half-minute steps spread the stream over ~8 hours so TTL expiry and the
  // byte-time integral both engage.
  const ReplayBatch chunk = ToChunk(MixedStream(8000, 0.8, 50000, 30 * kSecond, 23).requests);
  const std::vector<SimDuration> grid{kHour, 6 * kHour, kDay};
  TtlBank seq(grid, 0.5, 9);
  TtlBank par(grid, 0.5, 9);
  ThreadPool pool(4);
  par.SetExecution(&pool, /*async=*/false);
  for (size_t w = 0; w < 2; ++w) {
    seq.ProcessColumns(chunk, w * 25000, (w + 1) * 25000);
    par.ProcessColumns(chunk, w * 25000, (w + 1) * 25000);
    const TtlWindowCurves ws = seq.EndWindow(4 * kHour);
    const TtlWindowCurves wp = par.EndWindow(4 * kHour);
    EXPECT_EQ(ws.sampled_gets, wp.sampled_gets);
    ExpectCurvesIdentical(ws.mrc, wp.mrc);
    ExpectCurvesIdentical(ws.bmc, wp.bmc);
    ExpectCurvesIdentical(ws.capacity, wp.capacity);
  }
}

TEST(ParallelDeterminismTest, AlcBankBitIdenticalToSequential) {
  // Wide enough (about 9k distinct sampled ids) that the bank reclaims
  // slots mid-stream.
  const ReplayBatch chunk = ToChunk(MixedStream(40000, 0.7, 40000, 10, 24).requests);
  const auto grid = UniformSizeGrid(20'000, 2'000'000, 10);
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 1);
  // Synchronous fan-out, then async: slot resolution, latency draws, row
  // growth and slot reclamation run on this thread after the join of the
  // batch in flight.
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    // Same seed: each bank draws its latencies from its own Rng, in stream
    // order, so the two sequences are identical.
    AlcBank seq(grid, 2'000'000, 0.5, 31, &gen, 77);
    AlcBank par(grid, 2'000'000, 0.5, 31, &gen, 77);
    ThreadPool pool(4);
    par.SetExecution(&pool, async);
    for (size_t w = 0; w < 2; ++w) {
      seq.ProcessColumns(chunk, w * 20000, (w + 1) * 20000);
      par.ProcessColumns(chunk, w * 20000, (w + 1) * 20000);
      if (w == 0) {
        // Mid-stream reconfiguration flushes pending batches on both sides.
        seq.SetOscCapacity(1'000'000);
        par.SetOscCapacity(1'000'000);
      }
      const AlcWindow ws = seq.EndWindow();
      const AlcWindow wp = par.EndWindow();
      EXPECT_EQ(ws.sampled_gets, wp.sampled_gets);
      ExpectCurvesIdentical(ws.alc, wp.alc);
      ASSERT_EQ(ws.level_counts.size(), wp.level_counts.size());
      for (size_t i = 0; i < ws.level_counts.size(); ++i) {
        EXPECT_EQ(ws.level_counts[i].cluster_hits, wp.level_counts[i].cluster_hits);
        EXPECT_EQ(ws.level_counts[i].osc_hits, wp.level_counts[i].osc_hits);
        EXPECT_EQ(ws.level_counts[i].remote_misses, wp.level_counts[i].remote_misses);
        EXPECT_EQ(ws.level_counts[i].delayed_hits, wp.level_counts[i].delayed_hits);
      }
    }
  }
}

TEST(ParallelDeterminismTest, AsyncBankReplayBitIdenticalToSequential) {
  // Async execution: batch fan-outs are submitted, not joined, so grid
  // replay overlaps whatever this thread does next (here: filling the next
  // batch). EndWindow joins; curves must not drift by a bit.
  const ReplayBatch chunk = ToChunk(MixedStream(20000, 0.8, 60000, 1, 26).requests);
  const auto grid = UniformSizeGrid(100'000, 10'000'000, 16);
  for (const EvictionPolicyKind kind : kMrcPolicies) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    MrcBank seq(grid, 0.5, 17, kind);
    MrcBank par(grid, 0.5, 17, kind);
    ThreadPool pool(4);
    par.SetExecution(&pool, /*async=*/true);
    for (size_t w = 0; w < 2; ++w) {
      seq.ProcessColumns(chunk, w * 30000, (w + 1) * 30000);
      par.ProcessColumns(chunk, w * 30000, (w + 1) * 30000);
      const WindowCurves ws = seq.EndWindow();
      const WindowCurves wp = par.EndWindow();
      EXPECT_EQ(ws.sampled_gets, wp.sampled_gets);
      EXPECT_EQ(ws.window_requests, wp.window_requests);
      ExpectCurvesIdentical(ws.mrc, wp.mrc);
      ExpectCurvesIdentical(ws.bmc, wp.bmc);
    }
  }
}

TEST(ParallelDeterminismTest, AnalyzerSharedPoolBitIdentical) {
  // The analyzer owns no threads: SetExecution wires an engine-owned pool
  // through to the banks (sync joins at each flush, async joins at
  // EndWindow). Both must reproduce the sequential analyzer bit for bit.
  const ReplayBatch chunk = ToChunk(MixedStream(10000, 0.8, 40000, kSecond, 25).requests);
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 2);
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 0.5;
  cfg.num_minicaches = 16;
  cfg.min_capacity_bytes = 100'000;
  cfg.max_capacity_bytes = 10'000'000;
  cfg.enable_alc = true;
  cfg.enable_ttl = true;
  cfg.max_ttl = 2 * kDay;
  WorkloadAnalyzer sequential(cfg, &gen);
  WorkloadAnalyzer threaded(cfg, &gen);
  ThreadPool pool(4);
  threaded.SetExecution(&pool, /*async=*/true);
  for (size_t w = 0; w < 2; ++w) {
    sequential.ProcessColumns(chunk, w * 20000, (w + 1) * 20000);
    threaded.ProcessColumns(chunk, w * 20000, (w + 1) * 20000);
    const AnalyzerReport rs = sequential.EndWindow(15 * kMinute);
    const AnalyzerReport rp = threaded.EndWindow(15 * kMinute);
    ExpectCurvesIdentical(rs.aggregated_mrc, rp.aggregated_mrc);
    ExpectCurvesIdentical(rs.aggregated_bmc, rp.aggregated_bmc);
    ASSERT_EQ(rs.latest_alc.has_value(), rp.latest_alc.has_value());
    if (rs.latest_alc.has_value()) {
      ExpectCurvesIdentical(*rs.latest_alc, *rp.latest_alc);
    }
    ASSERT_TRUE(rs.aggregated_ttl_mrc.has_value());
    ASSERT_TRUE(rp.aggregated_ttl_mrc.has_value());
    ExpectCurvesIdentical(*rs.aggregated_ttl_mrc, *rp.aggregated_ttl_mrc);
    ExpectCurvesIdentical(*rs.aggregated_ttl_bmc, *rp.aggregated_ttl_bmc);
    ExpectCurvesIdentical(*rs.aggregated_ttl_capacity, *rp.aggregated_ttl_capacity);
    EXPECT_EQ(rs.expected_window_reads, rp.expected_window_reads);
    EXPECT_EQ(rs.expected_window_writes, rp.expected_window_writes);
    EXPECT_EQ(rs.window_requests, rp.window_requests);
  }
}

}  // namespace
}  // namespace macaron
