// Tests for the synthetic workload generator: the 19-trace suite must
// reproduce the Table 2 characteristics that drive Macaron's behaviour.

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

TEST(ProfilesTest, NineteenWorkloads) {
  EXPECT_EQ(AllProfiles().size(), 19u);
}

TEST(ProfilesTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const WorkloadProfile& p : AllProfiles()) {
    EXPECT_TRUE(names.insert(p.name).second) << p.name;
  }
}

TEST(ProfilesTest, LookupByName) {
  const WorkloadProfile p = ProfileByName("ibm55");
  EXPECT_EQ(p.name, "ibm55");
  EXPECT_EQ(p.arrival, ArrivalPattern::kDiurnal);
}

TEST(ProfilesTest, HeadlineNamesResolve) {
  for (const std::string& name : HeadlineProfileNames()) {
    EXPECT_EQ(ProfileByName(name).name, name);
  }
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  const WorkloadProfile p = ProfileByName("ibm18");
  const Trace a = GenerateTrace(p);
  const Trace b = GenerateTrace(p);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a.requests[i], b.requests[i]);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  WorkloadProfile p = ProfileByName("ibm18");
  const Trace a = GenerateTrace(p);
  p.seed += 1;
  const Trace b = GenerateTrace(p);
  bool any_diff = a.size() != b.size();
  for (size_t i = 0; !any_diff && i < std::min(a.size(), b.size()); ++i) {
    any_diff = !(a.requests[i] == b.requests[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, SortedWithinDuration) {
  const WorkloadProfile p = ProfileByName("ibm4");
  const Trace t = GenerateTrace(p);
  EXPECT_TRUE(t.IsSorted());
  EXPECT_GE(t.start_time(), 0);
  EXPECT_LE(t.end_time(), p.duration);
}

TEST(GeneratorTest, HourlyBurstConfinesTraffic) {
  const WorkloadProfile p = ProfileByName("ibm9");
  const Trace t = GenerateTrace(p);
  uint64_t in_burst = 0;
  for (const Request& r : t.requests) {
    if (r.time % kHour < 15 * kMinute) {
      ++in_burst;
    }
  }
  EXPECT_GT(static_cast<double>(in_burst) / static_cast<double>(t.size()), 0.9);
}

TEST(GeneratorTest, ShortLifetimeObjectsDoNotRecur) {
  // IBM 9: last access - first access < 10 min for most objects; we check
  // the (weaker) epoch property: an object's accesses stay within ~1 hour.
  const Trace t = GenerateTrace(ProfileByName("ibm9"));
  std::unordered_map<ObjectId, std::pair<SimTime, SimTime>> span;
  for (const Request& r : t.requests) {
    auto [it, inserted] = span.try_emplace(r.id, std::make_pair(r.time, r.time));
    if (!inserted) {
      it->second.second = r.time;
    }
  }
  uint64_t short_lived = 0;
  for (const auto& [id, window] : span) {
    if (window.second - window.first <= kHour) {
      ++short_lived;
    }
  }
  EXPECT_GT(static_cast<double>(short_lived) / static_cast<double>(span.size()), 0.9);
}

TEST(GeneratorTest, QuietDaysAreQuiet) {
  const WorkloadProfile p = ProfileByName("ibm80");
  const Trace t = GenerateTrace(p);
  uint64_t quiet = 0;
  for (const Request& r : t.requests) {
    const int day = static_cast<int>(r.time / kDay);
    if (day == 4 || day == 5) {
      ++quiet;
    }
  }
  EXPECT_LT(static_cast<double>(quiet) / static_cast<double>(t.size()), 0.01);
}

TEST(GeneratorTest, PutFractionForIbm55) {
  // Table 2: IBM 55 is 55% put / 45% get by operation count — our profile
  // targets the byte mix; the op mix should be in the same regime.
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("ibm55")));
  const double put_frac =
      static_cast<double>(s.num_puts) / static_cast<double>(s.num_puts + s.num_gets);
  EXPECT_GT(put_frac, 0.40);
  EXPECT_LT(put_frac, 0.65);
}

TEST(GeneratorTest, Ibm55LowCompulsoryMissRatio) {
  // §7.5: IBM 55's compulsory miss ratio is below ~0.1 thanks to reads
  // chasing fresh writes.
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("ibm55")));
  EXPECT_LT(s.compulsory_miss_ratio, 0.10);
}

TEST(GeneratorTest, Ibm96HighCompulsoryMissRatio) {
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("ibm96")));
  EXPECT_GT(s.compulsory_miss_ratio, 0.5);
}

TEST(GeneratorTest, Ibm12HighReuse) {
  // IBM 12 re-reads the same data >100x by volume.
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("ibm12")));
  EXPECT_GT(static_cast<double>(s.get_bytes) / static_cast<double>(s.unique_bytes), 50.0);
}

TEST(GeneratorTest, VmwareTinyDatasetHugeReuse) {
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("vmware")));
  EXPECT_LT(s.unique_bytes, 400ull * 1000 * 1000);
  EXPECT_GT(static_cast<double>(s.get_bytes) / static_cast<double>(s.unique_bytes), 30.0);
}

TEST(GeneratorTest, UberSustainsCompulsoryMisses) {
  // Streaming ingestion: fresh data keeps arriving across all 18 days.
  const Trace t = GenerateTrace(ProfileByName("uber1"));
  std::set<ObjectId> seen;
  uint64_t late_first_touches = 0;
  const SimTime half = t.end_time() / 2;
  for (const Request& r : t.requests) {
    if (seen.insert(r.id).second && r.time > half) {
      ++late_first_touches;
    }
  }
  EXPECT_GT(late_first_touches, 1000u);
}

TEST(GeneratorTest, DeleteFractionRespected) {
  const TraceStats s = ComputeStats(GenerateTrace(ProfileByName("ibm58")));
  const double frac = static_cast<double>(s.num_deletes) / static_cast<double>(s.num_requests);
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.05);
}

TEST(GeneratorTest, ObjectSizesWithinBounds) {
  const WorkloadProfile p = ProfileByName("ibm83");
  const Trace t = GenerateTrace(p);
  for (const Request& r : t.requests) {
    EXPECT_GE(r.size, 1000u);
    EXPECT_LE(r.size, p.max_object_bytes);
  }
}

TEST(GeneratorTest, SizesPastTheRequestFieldClampToMaxRequestBytes) {
  // Every draw lands near 2^62, past Request's 56-bit size field, and
  // max_object_bytes does not bound it: each size must clamp to
  // kMaxRequestBytes instead of wrapping.
  WorkloadProfile p;
  p.name = "huge";
  p.duration = kHour;
  p.mean_object_bytes = uint64_t{1} << 62;
  p.object_size_sigma = 0.01;
  p.max_object_bytes = UINT64_MAX;
  p.dataset_bytes = UINT64_MAX;
  p.get_bytes = UINT64_MAX;
  p.put_bytes = UINT64_MAX;
  const Trace t = GenerateTrace(p);
  ASSERT_EQ(t.requests.size(), 6u);
  for (const Request& r : t.requests) {
    EXPECT_EQ(r.size, kMaxRequestBytes);
  }
}

TEST(GeneratorTest, ObjectSizesAreStablePerObject) {
  const Trace t = GenerateTrace(ProfileByName("ibm12"));
  std::unordered_map<ObjectId, uint64_t> sizes;
  for (const Request& r : t.requests) {
    auto [it, inserted] = sizes.try_emplace(r.id, r.size);
    EXPECT_EQ(it->second, r.size) << "object " << r.id << " changed size";
  }
}

// Parameterized sweep: every profile must generate a sane trace.
class AllProfilesTest : public testing::TestWithParam<WorkloadProfile> {};

TEST_P(AllProfilesTest, GeneratesSaneTrace) {
  const WorkloadProfile& p = GetParam();
  const Trace t = GenerateTrace(p);
  ASSERT_FALSE(t.empty()) << p.name;
  EXPECT_TRUE(t.IsSorted()) << p.name;
  EXPECT_EQ(t.name, p.name);
  const TraceStats s = ComputeStats(t);
  EXPECT_GT(s.num_gets, 0u) << p.name;
  // Byte volume within 2x of the target.
  EXPECT_GT(s.get_bytes, p.get_bytes / 2) << p.name;
  EXPECT_LT(s.get_bytes, p.get_bytes * 2) << p.name;
  // Dataset within a factor of the configured total (puts/fresh gets grow it).
  EXPECT_GT(s.unique_bytes, p.dataset_bytes / 2) << p.name;
}

TEST_P(AllProfilesTest, SplitTraceRespectsBlockSize) {
  const WorkloadProfile& p = GetParam();
  const Trace t = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  for (size_t i = 0; i < t.size(); i += 101) {
    EXPECT_LE(t.requests[i].size, p.max_object_bytes) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, AllProfilesTest, testing::ValuesIn(AllProfiles()),
                         [](const testing::TestParamInfo<WorkloadProfile>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace macaron
