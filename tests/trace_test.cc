// Unit tests for src/trace: container, statistics (including a bit-exact
// differential against a node-map reference builder), I/O, splitting,
// sampling, concatenation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/trace/concat.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace macaron {
namespace {

Trace MakeTrace() {
  Trace t;
  t.name = "test";
  t.requests = {
      {0, 1, 100, Op::kGet},    {1000, 2, 200, Op::kGet},  {2000, 1, 100, Op::kGet},
      {3000, 3, 300, Op::kPut}, {4000, 3, 300, Op::kGet},  {5000, 2, 200, Op::kDelete},
  };
  return t;
}

TEST(TraceTest, BasicProperties) {
  const Trace t = MakeTrace();
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 5000);
  EXPECT_EQ(t.duration(), 5000);
  EXPECT_TRUE(t.IsSorted());
}

TEST(TraceTest, IsSortedDetectsDisorder) {
  Trace t = MakeTrace();
  std::swap(t.requests[0], t.requests[5]);
  EXPECT_FALSE(t.IsSorted());
}

TEST(TraceStatsTest, Counters) {
  const TraceStats s = ComputeStats(MakeTrace());
  EXPECT_EQ(s.num_requests, 6u);
  EXPECT_EQ(s.num_gets, 4u);
  EXPECT_EQ(s.num_puts, 1u);
  EXPECT_EQ(s.num_deletes, 1u);
  EXPECT_EQ(s.get_bytes, 100u + 200 + 100 + 300);
  EXPECT_EQ(s.put_bytes, 300u);
  EXPECT_EQ(s.unique_objects, 3u);
  EXPECT_EQ(s.unique_bytes, 600u);
}

TEST(TraceStatsTest, CompulsoryMissRatio) {
  const TraceStats s = ComputeStats(MakeTrace());
  // First-touch GET bytes: obj1 (100) + obj2 (200); obj3 first seen via PUT.
  EXPECT_EQ(s.unique_get_bytes, 300u);
  EXPECT_DOUBLE_EQ(s.compulsory_miss_ratio, 300.0 / 700.0);
}

TEST(TraceStatsTest, EmptyTrace) {
  const TraceStats s = ComputeStats(Trace{});
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.compulsory_miss_ratio, 0.0);
}

TEST(TraceStatsTest, SummaryIsNonEmpty) {
  EXPECT_FALSE(ComputeStats(MakeTrace()).Summary().empty());
}

// --- TraceStatsBuilder differential ---

// The node-map builder TraceStatsBuilder replaced, kept verbatim as the
// reference: an unordered_map of first-seen sizes (whose mapped value is
// never read), an unordered_map of GET counts, and an ordered size -> count
// map walked for the median.
class NodeMapStatsBuilder {
 public:
  void Add(const Request& r) {
    if (!any_) {
      first_time_ = r.time;
      any_ = true;
    }
    last_time_ = r.time;
    ++s_.num_requests;
    ++size_counts_[r.size];
    switch (r.op) {
      case Op::kGet: {
        ++s_.num_gets;
        s_.get_bytes += r.size;
        auto [it, inserted] = sizes_.try_emplace(r.id, r.size);
        if (inserted) {
          s_.unique_bytes += r.size;
          s_.unique_get_bytes += r.size;
        }
        get_freq_[r.id]++;
        break;
      }
      case Op::kPut: {
        ++s_.num_puts;
        s_.put_bytes += r.size;
        auto [it, inserted] = sizes_.try_emplace(r.id, r.size);
        if (inserted) {
          s_.unique_bytes += r.size;
        }
        break;
      }
      case Op::kDelete:
        ++s_.num_deletes;
        break;
    }
  }

  TraceStats Finish() const {
    TraceStats s = s_;
    s.unique_objects = sizes_.size();
    s.compulsory_miss_ratio =
        s.get_bytes == 0
            ? 0.0
            : static_cast<double>(s.unique_get_bytes) / static_cast<double>(s.get_bytes);
    s.zipf_alpha = FitZipfAlpha(get_freq_);
    const SimDuration span = last_time_ - first_time_;
    s.mean_request_rate =
        span <= 0 ? 0.0 : static_cast<double>(s.num_requests) / DurationSeconds(span);
    if (s.num_requests > 0) {
      const uint64_t mid = s.num_requests / 2;
      uint64_t cum = 0;
      for (const auto& [size, count] : size_counts_) {
        cum += count;
        if (cum > mid) {
          s.median_object_bytes = size;
          break;
        }
      }
    }
    return s;
  }

 private:
  static double FitZipfAlpha(const std::unordered_map<ObjectId, uint64_t>& freq) {
    std::vector<uint64_t> counts;
    counts.reserve(freq.size());
    for (const auto& [id, c] : freq) {
      counts.push_back(c);
    }
    std::sort(counts.begin(), counts.end(), std::greater<>());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    size_t n = 0;
    for (size_t rank = 0; rank < counts.size(); ++rank) {
      if (counts[rank] < 2) {
        break;
      }
      const double x = std::log(static_cast<double>(rank + 1));
      const double y = std::log(static_cast<double>(counts[rank]));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
      ++n;
    }
    if (n < 8) {
      return 0.0;
    }
    const double nd = static_cast<double>(n);
    const double denom = nd * sxx - sx * sx;
    if (denom <= 0.0) {
      return 0.0;
    }
    const double slope = (nd * sxy - sx * sy) / denom;
    return std::max(0.0, -slope);
  }

  TraceStats s_;
  std::unordered_map<ObjectId, uint64_t> sizes_;
  std::unordered_map<ObjectId, uint64_t> get_freq_;
  std::map<uint64_t, uint64_t> size_counts_;
  SimTime first_time_ = 0;
  SimTime last_time_ = 0;
  bool any_ = false;
};

TraceStats ReferenceStats(const Trace& t) {
  NodeMapStatsBuilder b;
  for (const Request& r : t.requests) {
    b.Add(r);
  }
  return b.Finish();
}

// All 13 fields, the doubles compared by bit pattern.
void ExpectBitIdentical(const TraceStats& got, const TraceStats& want, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.num_requests, want.num_requests);
  EXPECT_EQ(got.num_gets, want.num_gets);
  EXPECT_EQ(got.num_puts, want.num_puts);
  EXPECT_EQ(got.num_deletes, want.num_deletes);
  EXPECT_EQ(got.get_bytes, want.get_bytes);
  EXPECT_EQ(got.put_bytes, want.put_bytes);
  EXPECT_EQ(got.unique_objects, want.unique_objects);
  EXPECT_EQ(got.unique_bytes, want.unique_bytes);
  EXPECT_EQ(got.unique_get_bytes, want.unique_get_bytes);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.compulsory_miss_ratio),
            std::bit_cast<uint64_t>(want.compulsory_miss_ratio));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.zipf_alpha), std::bit_cast<uint64_t>(want.zipf_alpha));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.mean_request_rate),
            std::bit_cast<uint64_t>(want.mean_request_rate));
  EXPECT_EQ(got.median_object_bytes, want.median_object_bytes);
}

struct RandomTraceSpec {
  uint64_t seed;
  size_t requests;
  uint64_t population;  // skewed GET/PUT ids in [0, population)
  uint64_t size_values;  // per-request sizes drawn from [1, size_values]
  double put_fraction;
  double delete_fraction;
  double put_only_fraction;     // PUTs to ids nothing else touches
  double delete_only_fraction;  // DELETEs of ids nothing else touches
};

// Seeded mixed trace. Sizes are drawn per request rather than per object,
// so PUTs (and GETs) of an object change its size mid-trace; a small
// `size_values` piles many requests onto each size, putting ties at the
// median. Timestamps step by 0..3 ms, so repeats occur.
Trace RandomTrace(const RandomTraceSpec& spec) {
  Rng rng(spec.seed);
  Trace t;
  t.name = "random";
  t.requests.reserve(spec.requests);
  const uint64_t put_only_base = 1ull << 40;
  const uint64_t delete_only_base = 1ull << 41;
  SimTime time = 0;
  for (size_t i = 0; i < spec.requests; ++i) {
    time += static_cast<SimTime>(rng.NextU64() % 4) * kMillisecond;
    Request r;
    r.time = time;
    r.size = 1 + rng.NextU64() % spec.size_values;
    const double u = rng.NextDouble();
    if (u < spec.delete_only_fraction) {
      r.op = Op::kDelete;
      r.id = delete_only_base + i;
    } else if (u < spec.delete_only_fraction + spec.put_only_fraction) {
      r.op = Op::kPut;
      r.id = put_only_base + rng.NextU64() % (spec.population + 1);
    } else {
      // Skewed popularity: a uniform bound, then a uniform id under it.
      r.id = rng.NextU64() % (1 + rng.NextU64() % spec.population);
      const double v = rng.NextDouble();
      r.op = v < spec.delete_fraction
                 ? Op::kDelete
                 : (v < spec.delete_fraction + spec.put_fraction ? Op::kPut : Op::kGet);
    }
    t.requests.push_back(r);
  }
  return t;
}

TEST(TraceStatsDifferentialTest, MatchesNodeMapBuilderOnSeededTraces) {
  const std::vector<RandomTraceSpec> specs = {
      // Mixed ops, few sizes: heavy ties at the median.
      {1, 20000, 2000, 8, 0.2, 0.05, 0.02, 0.02},
      {2, 20001, 500, 3, 0.3, 0.1, 0.05, 0.05},
      // GET-only and GET-heavy, wide size range.
      {3, 50000, 10000, 1ull << 30, 0.0, 0.0, 0.0, 0.0},
      {4, 50000, 4000, 4096, 0.05, 0.01, 0.0, 0.1},
      // Writes dominate: many PUT-only and DELETE-only ids.
      {5, 30000, 1000, 64, 0.6, 0.2, 0.3, 0.3},
      // Tiny population: every object far above the alpha fit's cut.
      {6, 10000, 16, 2, 0.1, 0.1, 0.0, 0.0},
  };
  for (const RandomTraceSpec& spec : specs) {
    const Trace t = RandomTrace(spec);
    ExpectBitIdentical(ComputeStats(t), ReferenceStats(t), "seed " + std::to_string(spec.seed));
  }
}

// More than 2^17 distinct ids and sizes: both FlatIndex tables rehash many
// times (16 cells doubling past 2^19), so any slot bookkeeping slip across
// a rehash would surface as a wrong count.
TEST(TraceStatsDifferentialTest, MatchesNodeMapBuilderAcrossManyRehashes) {
  const Trace t = RandomTrace({7, 400000, 1ull << 22, 1ull << 40, 0.1, 0.05, 0.05, 0.05});
  const TraceStats want = ReferenceStats(t);
  ASSERT_GT(want.unique_objects, 1u << 17);
  std::vector<uint64_t> sizes;
  for (const Request& r : t.requests) {
    sizes.push_back(r.size);
  }
  std::sort(sizes.begin(), sizes.end());
  ASSERT_GT(std::unique(sizes.begin(), sizes.end()) - sizes.begin(), 1 << 17);
  ASSERT_GT(want.zipf_alpha, 0.0);
  ExpectBitIdentical(ComputeStats(t), want, "many rehashes");
}

TEST(TraceStatsDifferentialTest, MatchesNodeMapBuilderOnEdgeCases) {
  std::vector<std::pair<std::string, Trace>> cases;
  cases.emplace_back("empty", Trace{});
  cases.emplace_back("single get", Trace{"", {{5, 1, 100, Op::kGet}}});
  cases.emplace_back("single put", Trace{"", {{5, 1, 100, Op::kPut}}});
  cases.emplace_back("single delete", Trace{"", {{5, 1, 100, Op::kDelete}}});
  Trace all_delete;
  for (int i = 0; i < 1000; ++i) {
    all_delete.requests.push_back({i * kSecond, static_cast<ObjectId>(i % 37),
                                   static_cast<uint64_t>(1 + i % 5), Op::kDelete});
  }
  cases.emplace_back("all delete", all_delete);
  // Even count split exactly at the median: the walk must pick the upper
  // size, as the ordered map did.
  cases.emplace_back("median tie", Trace{"", {{0, 1, 200, Op::kGet},
                                              {1, 2, 100, Op::kGet},
                                              {2, 3, 200, Op::kPut},
                                              {3, 4, 100, Op::kDelete}}});
  // A PUT that changes an object's size after its first GET, a DELETE-only
  // id and a PUT-only id, all at one timestamp (zero span).
  cases.emplace_back("resize", Trace{"", {{7, 1, 100, Op::kGet},
                                          {7, 1, 900, Op::kPut},
                                          {7, 1, 900, Op::kGet},
                                          {7, 2, 50, Op::kDelete},
                                          {7, 3, 70, Op::kPut}}});
  // One object alternating between two sizes: each change folds the run
  // it ends into the size table, so both sizes are folded in repeatedly.
  cases.emplace_back("alternating size", Trace{"", {{0, 1, 100, Op::kGet},
                                                    {1, 1, 200, Op::kPut},
                                                    {2, 1, 100, Op::kPut},
                                                    {3, 1, 200, Op::kGet},
                                                    {4, 1, 200, Op::kGet},
                                                    {5, 1, 100, Op::kPut},
                                                    {6, 2, 150, Op::kGet}}});
  // A DELETE names a live object at a size its row does not hold.
  cases.emplace_back("delete resizes", Trace{"", {{0, 1, 100, Op::kGet},
                                                  {1, 1, 300, Op::kDelete},
                                                  {2, 1, 100, Op::kPut},
                                                  {3, 2, 300, Op::kGet}}});
  // A DELETE of a never-seen id at a size a live row also holds: the same
  // size is then counted both in a row and in the size table.
  cases.emplace_back("delete unseen at live size", Trace{"", {{0, 1, 100, Op::kGet},
                                                              {1, 9, 100, Op::kDelete},
                                                              {2, 1, 100, Op::kGet},
                                                              {3, 2, 50, Op::kGet}}});
  // The median (the 5th of 8 sizes) is 50, which only object 1's folded
  // run holds by the end: its row has moved on to 500.
  cases.emplace_back("median on folded pair", Trace{"", {{0, 1, 50, Op::kGet},
                                                         {1, 1, 50, Op::kGet},
                                                         {2, 1, 50, Op::kGet},
                                                         {3, 1, 50, Op::kGet},
                                                         {4, 1, 50, Op::kGet},
                                                         {5, 1, 500, Op::kPut},
                                                         {6, 2, 900, Op::kGet},
                                                         {7, 2, 900, Op::kGet}}});
  for (const auto& [name, t] : cases) {
    ExpectBitIdentical(ComputeStats(t), ReferenceStats(t), name);
  }
}

// The stream source's stats pre-pass runs the same builder over the stream
// it will deliver; with drift and a flash crowd the id mix is at its least
// regular, so the footer-free Info() must still equal ComputeStats of the
// materialized stream (and the reference builder's result).
TEST(TraceStatsDifferentialTest, StreamInfoMatchesMaterializedStats) {
  StreamProfile p;
  p.name = "drift-flash";
  p.num_requests = 200000;
  p.population = 1ull << 14;
  p.zipf_alpha = 0.9;
  p.duration = 2 * kDay;
  p.put_fraction = 0.2;
  p.delete_fraction = 0.05;
  p.drift_period = 6 * kHour;
  p.flash_at = kDay;
  p.flash_duration = 2 * kHour;
  p.flash_fraction = 0.5;
  p.seed = 11;
  SyntheticStreamSource source(p, /*chunk_records=*/4096);
  Trace t;
  ReplayBatch batch;
  while (source.FillNext(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      t.requests.push_back(batch.RowAt(i));
    }
  }
  ASSERT_EQ(t.size(), p.num_requests);
  const TraceStats materialized = ComputeStats(t);
  ExpectBitIdentical(source.Info().stats, materialized, "stream info");
  ExpectBitIdentical(materialized, ReferenceStats(t), "stream reference");
}

// --- I/O round trips ---

TEST(TraceIoTest, CsvRoundTrip) {
  const Trace t = MakeTrace();
  const std::string path = testing::TempDir() + "/trace_csv_test.csv";
  ASSERT_TRUE(WriteTraceCsv(t, path));
  Trace back;
  ASSERT_TRUE(ReadTraceCsv(path, &back));
  ASSERT_EQ(back.requests.size(), t.requests.size());
  for (size_t i = 0; i < t.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i], t.requests[i]) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceIoTest, ReadMissingFileFails) {
  Trace t;
  EXPECT_FALSE(ReadTraceCsv("/nonexistent/path.csv", &t));
}

// --- Splitting ---

TEST(SplitterTest, SmallObjectsPassThrough) {
  Trace t;
  t.requests = {{0, 5, 1000, Op::kGet}};
  const Trace out = SplitObjects(t, 4000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.requests[0].size, 1000u);
  EXPECT_EQ(out.requests[0].id, SplitPartId(5, 0));
}

TEST(SplitterTest, LargeObjectSplitsIntoBlocks) {
  Trace t;
  t.requests = {{0, 7, 10'000'000, Op::kGet}};
  const Trace out = SplitObjects(t, 4'000'000);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.requests[0].size, 4'000'000u);
  EXPECT_EQ(out.requests[1].size, 4'000'000u);
  EXPECT_EQ(out.requests[2].size, 2'000'000u);
  uint64_t total = 0;
  for (const Request& r : out.requests) {
    total += r.size;
    EXPECT_EQ(r.time, 0);
    EXPECT_EQ(r.op, Op::kGet);
  }
  EXPECT_EQ(total, 10'000'000u);
}

TEST(SplitterTest, PartIdsAreDistinctAndStable) {
  EXPECT_NE(SplitPartId(7, 0), SplitPartId(7, 1));
  EXPECT_NE(SplitPartId(7, 0), SplitPartId(8, 0));
  EXPECT_EQ(SplitPartId(7, 2), SplitPartId(7, 2));
}

TEST(SplitterTest, ExactMultipleHasNoRemainder) {
  Trace t;
  t.requests = {{0, 1, 8'000'000, Op::kPut}};
  const Trace out = SplitObjects(t, 4'000'000);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.requests[0].size, 4'000'000u);
  EXPECT_EQ(out.requests[1].size, 4'000'000u);
}

// --- Spatial sampling ---

TEST(SamplerTest, RatioOneAdmitsAll) {
  const SpatialSampler s(1.0, 0);
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(s.Admit(id));
  }
}

TEST(SamplerTest, AdmissionRateNearRatio) {
  const SpatialSampler s(0.1, 42);
  int admitted = 0;
  for (ObjectId id = 0; id < 100000; ++id) {
    if (s.Admit(id)) {
      ++admitted;
    }
  }
  EXPECT_NEAR(admitted / 100000.0, 0.1, 0.01);
}

TEST(SamplerTest, DeterministicPerObject) {
  const SpatialSampler s(0.5, 7);
  for (ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(s.Admit(id), s.Admit(id));
  }
}

TEST(SamplerTest, DifferentSaltsDiffer) {
  const SpatialSampler a(0.5, 1);
  const SpatialSampler b(0.5, 2);
  int differ = 0;
  for (ObjectId id = 0; id < 1000; ++id) {
    if (a.Admit(id) != b.Admit(id)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 300);
}

// --- Concatenation ---

TEST(ConcatTest, TimesShiftAndIdsRemap) {
  Trace a = MakeTrace();
  Trace b = MakeTrace();
  const Trace out = ConcatenateTraces(a, b, 1000);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_TRUE(out.IsSorted());
  // Second trace starts after first end + gap.
  EXPECT_EQ(out.requests[6].time, 5000 + 1000);
  // Ids are disjoint.
  EXPECT_NE(out.requests[6].id, out.requests[0].id);
  EXPECT_EQ(out.requests[6].id & (1ull << 62), 1ull << 62);
}

TEST(ConcatTest, NameCombines) {
  Trace a = MakeTrace();
  a.name = "x";
  Trace b = MakeTrace();
  b.name = "y";
  EXPECT_EQ(ConcatenateTraces(a, b, 0).name, "x->y");
}

}  // namespace
}  // namespace macaron
