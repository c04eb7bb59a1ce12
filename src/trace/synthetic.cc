#include "src/trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/common/zipf.h"

namespace macaron {

namespace {

// Time-slot granularity for the arrival-rate density.
constexpr SimDuration kSlot = 5 * kMinute;

// Builds the per-slot arrival weights implied by the profile's pattern.
std::vector<double> BuildSlotWeights(const WorkloadProfile& p) {
  const size_t n_slots = static_cast<size_t>((p.duration + kSlot - 1) / kSlot);
  std::vector<double> weights(n_slots, 1.0);
  for (size_t i = 0; i < n_slots; ++i) {
    const SimTime t = static_cast<SimTime>(i) * kSlot;
    const double hour_of_day = static_cast<double>(t % kDay) / static_cast<double>(kHour);
    const SimDuration offset_in_hour = t % kHour;
    double w = 1.0;
    switch (p.arrival) {
      case ArrivalPattern::kSteady:
        w = 1.0;
        break;
      case ArrivalPattern::kDiurnal:
        w = 1.0 + 0.8 * std::sin(2.0 * M_PI * hour_of_day / 24.0);
        break;
      case ArrivalPattern::kHourlyBurst:
        w = offset_in_hour < 15 * kMinute ? 1.0 : 0.01;
        break;
      case ArrivalPattern::kPeriodicJobs: {
        const double hour_mod = std::fmod(hour_of_day, 6.0);
        w = hour_mod < 1.0 ? 3.0 : 0.4;
        break;
      }
    }
    const int day = static_cast<int>(t / kDay);
    for (int quiet : p.quiet_days) {
      if (day == quiet) {
        w = 1e-4;
      }
    }
    weights[i] = w;
  }
  return weights;
}

// Samples `count` timestamps from the slot-weight density; sorted ascending.
std::vector<SimTime> SampleArrivals(const WorkloadProfile& p, uint64_t count, Rng& rng) {
  const std::vector<double> weights = BuildSlotWeights(p);
  std::vector<double> cdf(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    cdf[i] = acc;
  }
  MACARON_CHECK(acc > 0.0);
  std::vector<SimTime> times;
  times.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const double u = rng.NextDouble() * acc;
    const size_t slot = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const SimTime base = static_cast<SimTime>(slot) * kSlot;
    times.push_back(base + static_cast<SimTime>(rng.NextBounded(kSlot)));
  }
  std::sort(times.begin(), times.end());
  return times;
}

// Stable per-object size generator (log-normal, clamped).
class SizeSampler {
 public:
  SizeSampler(uint64_t mean_bytes, double sigma, uint64_t max_bytes)
      : sigma_(sigma),
        mu_(std::log(static_cast<double>(mean_bytes)) - sigma * sigma / 2.0),
        max_bytes_(std::min(max_bytes, kMaxRequestBytes)) {}

  // Clamps in double before the cast: casting a draw at or past 2^64 is
  // undefined, and a size past kMaxRequestBytes would wrap in Request's
  // size field. Every double below max_bytes_ truncates to at most
  // max_bytes_.
  uint64_t Sample(Rng& rng) const {
    const double s = rng.NextLogNormal(mu_, sigma_);
    if (s < static_cast<double>(kKB)) {
      return kKB;
    }
    if (s >= static_cast<double>(max_bytes_)) {
      return max_bytes_;
    }
    return static_cast<uint64_t>(s);
  }

 private:
  double sigma_;
  double mu_;
  uint64_t max_bytes_;
};

}  // namespace

Trace GenerateTrace(const WorkloadProfile& p) {
  MACARON_CHECK(p.mean_object_bytes > 0);
  MACARON_CHECK(p.duration > 0);
  Rng rng(p.seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull);
  const SizeSampler size_sampler(p.mean_object_bytes, p.object_size_sigma, p.max_object_bytes);

  // Initial dataset.
  const uint64_t n_init = p.NumInitialObjects();
  std::vector<uint64_t> obj_sizes;
  obj_sizes.reserve(n_init);
  for (uint64_t i = 0; i < n_init; ++i) {
    obj_sizes.push_back(size_sampler.Sample(rng));
  }

  // Request counts implied by byte-volume targets.
  const uint64_t n_gets = std::max<uint64_t>(1, p.get_bytes / p.mean_object_bytes);
  const uint64_t n_puts = p.put_bytes / p.mean_object_bytes;
  const uint64_t n_rw = n_gets + n_puts;
  const uint64_t n_dels =
      p.delete_fraction <= 0.0
          ? 0
          : static_cast<uint64_t>(p.delete_fraction * static_cast<double>(n_rw) /
                                  (1.0 - p.delete_fraction));
  const uint64_t total = n_rw + n_dels;

  std::vector<SimTime> times = SampleArrivals(p, total, rng);

  ZipfSampler zipf(n_init, p.zipf_alpha);
  const uint64_t shift_per_day = static_cast<uint64_t>(p.daily_shift * static_cast<double>(n_init));

  // Short-lifetime mode: objects are grouped into hourly epochs; each epoch
  // accesses only its own fresh slice of the dataset.
  const uint64_t n_epochs =
      std::max<uint64_t>(1, static_cast<uint64_t>(p.duration / kHour));
  const uint64_t epoch_set_size = std::max<uint64_t>(4, n_init / n_epochs);
  std::unique_ptr<ZipfSampler> epoch_zipf;
  if (p.short_lifetime) {
    epoch_zipf = std::make_unique<ZipfSampler>(epoch_set_size, p.zipf_alpha);
  }

  std::vector<ObjectId> recent_puts;  // ids of recently written objects
  uint64_t remaining_gets = n_gets;
  uint64_t remaining_puts = n_puts;
  uint64_t remaining_dels = n_dels;

  Trace trace;
  trace.name = p.name;
  trace.requests.reserve(total);

  for (SimTime t : times) {
    const uint64_t remaining = remaining_gets + remaining_puts + remaining_dels;
    if (remaining == 0) {
      break;
    }
    const uint64_t pick = rng.NextBounded(remaining);
    if (pick < remaining_gets) {
      --remaining_gets;
      ObjectId id = 0;
      if (p.short_lifetime) {
        const uint64_t epoch = static_cast<uint64_t>(t / kHour);
        const uint64_t base = (epoch * epoch_set_size) % n_init;
        id = (base + epoch_zipf->Sample(rng)) % n_init;
      } else if (p.fresh_get_fraction > 0.0 && rng.NextDouble() < p.fresh_get_fraction) {
        // First read of data newly ingested into the lake by external
        // producers; eligible for recency-biased re-reads afterwards.
        id = obj_sizes.size();
        obj_sizes.push_back(size_sampler.Sample(rng));
        recent_puts.push_back(id);
      } else if (p.recent_get_fraction > 0.0 && !recent_puts.empty() &&
                 rng.NextDouble() < p.recent_get_fraction) {
        // Recency-weighted choice among recent writes (newest preferred),
        // modeling reads of freshly ingested data.
        const uint64_t window =
            std::min<uint64_t>(recent_puts.size(),
                               static_cast<uint64_t>(p.recent_get_spread * 8.0) + 1);
        uint64_t back =
            static_cast<uint64_t>(rng.NextExponential(1.0 / p.recent_get_spread));
        back = std::min(back, window - 1);
        id = recent_puts[recent_puts.size() - 1 - back];
      } else {
        const uint64_t rank = zipf.Sample(rng);
        const uint64_t day = static_cast<uint64_t>(t / kDay);
        id = (rank + day * shift_per_day) % n_init;
      }
      trace.requests.push_back(Request{t, id, obj_sizes[id], Op::kGet});
    } else if (pick < remaining_gets + remaining_puts) {
      --remaining_puts;
      const ObjectId id = obj_sizes.size();
      obj_sizes.push_back(size_sampler.Sample(rng));
      recent_puts.push_back(id);
      trace.requests.push_back(Request{t, id, obj_sizes[id], Op::kPut});
    } else {
      --remaining_dels;
      ObjectId id = 0;
      if (!recent_puts.empty()) {
        // Delete the oldest recent write.
        id = recent_puts.front();
        recent_puts.erase(recent_puts.begin());
      } else {
        id = rng.NextBounded(n_init);
      }
      trace.requests.push_back(Request{t, id, obj_sizes[id], Op::kDelete});
    }
  }
  return trace;
}

namespace {

constexpr uint64_t kGBu = 1000ull * 1000 * 1000;
constexpr uint64_t kMBu = 1000ull * 1000;

WorkloadProfile Base(const std::string& name, uint64_t seed) {
  WorkloadProfile p;
  p.name = name;
  p.seed = seed;
  return p;
}

}  // namespace

// The evaluation suite. Byte figures are 1/1000 of the paper's (TB -> GB),
// with request counts scaled proportionally. Characteristics follow Table 2
// and the per-trace remarks throughout the paper.
std::vector<WorkloadProfile> AllProfiles() {
  std::vector<WorkloadProfile> out;

  {  // IBM 4: moderate skew, read-dominant.
    WorkloadProfile p = Base("ibm4", 104);
    p.dataset_bytes = 8 * kGBu;
    p.get_bytes = 24 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.5;
    out.push_back(p);
  }
  {  // IBM 9: GET-only, low skew, short-lived objects in 15-min hourly
     // bursts (last access - first access < 10 min).
    WorkloadProfile p = Base("ibm9", 109);
    p.dataset_bytes = 6 * kGBu;
    p.get_bytes = 34 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.22;
    p.arrival = ArrivalPattern::kHourlyBurst;
    p.short_lifetime = true;
    out.push_back(p);
  }
  {  // IBM 11: skewed read-only workload.
    WorkloadProfile p = Base("ibm11", 111);
    p.dataset_bytes = 3 * kGBu;
    p.get_bytes = 25 * kGBu;
    p.mean_object_bytes = 512 * 1000;
    p.zipf_alpha = 0.6;
    out.push_back(p);
  }
  {  // IBM 12: 1% put / 99% get, very high repetitiveness (>100x reuse),
     // alpha 0.97.
    WorkloadProfile p = Base("ibm12", 112);
    p.dataset_bytes = 2 * kGBu;
    p.get_bytes = 240 * kGBu;
    p.put_bytes = 2 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.97;
    out.push_back(p);
  }
  {  // IBM 18: high request rate, small objects, alpha 0.64.
    WorkloadProfile p = Base("ibm18", 118);
    p.dataset_bytes = 4 * kGBu;
    p.get_bytes = 14 * kGBu;
    p.put_bytes = 230 * kMBu;
    p.mean_object_bytes = 64 * 1000;
    p.object_size_sigma = 0.6;
    p.zipf_alpha = 0.64;
    out.push_back(p);
  }
  {  // IBM 27: high compulsory miss ratio (~0.57).
    WorkloadProfile p = Base("ibm27", 127);
    p.dataset_bytes = 20 * kGBu;
    p.get_bytes = 30 * kGBu;
    p.put_bytes = 4 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.3;
    out.push_back(p);
  }
  {  // IBM 34: mid-range skew.
    WorkloadProfile p = Base("ibm34", 134);
    p.dataset_bytes = 10 * kGBu;
    p.get_bytes = 40 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.55;
    out.push_back(p);
  }
  {  // IBM 45: small objects, benefits from packing.
    WorkloadProfile p = Base("ibm45", 145);
    p.dataset_bytes = 6 * kGBu;
    p.get_bytes = 18 * kGBu;
    p.put_bytes = 1 * kGBu;
    p.mean_object_bytes = 128 * 1000;
    p.object_size_sigma = 0.6;
    p.zipf_alpha = 0.5;
    out.push_back(p);
  }
  {  // IBM 55: 55% put / 45% get, diurnal, near-zero compulsory misses
     // (reads chase fresh writes).
    WorkloadProfile p = Base("ibm55", 155);
    p.dataset_bytes = 1 * kGBu;
    p.get_bytes = 10 * kGBu;
    p.put_bytes = 12 * kGBu;
    p.mean_object_bytes = 512 * 1000;
    p.zipf_alpha = 0.42;
    p.arrival = ArrivalPattern::kDiurnal;
    p.recent_get_fraction = 0.95;
    p.recent_get_spread = 2500.0;  // reads span several hours of ingestion
    out.push_back(p);
  }
  {  // IBM 58: read/write/delete mix.
    WorkloadProfile p = Base("ibm58", 158);
    p.dataset_bytes = 8 * kGBu;
    p.get_bytes = 12 * kGBu;
    p.put_bytes = 5 * kGBu;
    p.delete_fraction = 0.02;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.5;
    p.recent_get_fraction = 0.4;
    p.recent_get_spread = 600.0;
    out.push_back(p);
  }
  {  // IBM 66: high compulsory miss ratio (~0.79).
    WorkloadProfile p = Base("ibm66", 166);
    p.dataset_bytes = 30 * kGBu;
    p.get_bytes = 20 * kGBu;
    p.put_bytes = 15 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.25;
    out.push_back(p);
  }
  {  // IBM 75: strongly skewed reads.
    WorkloadProfile p = Base("ibm75", 175);
    p.dataset_bytes = 12 * kGBu;
    p.get_bytes = 50 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.8;
    out.push_back(p);
  }
  {  // IBM 80: dynamic hot set with a two-day quiet period (§7.8).
    WorkloadProfile p = Base("ibm80", 180);
    p.dataset_bytes = 10 * kGBu;
    p.get_bytes = 35 * kGBu;
    p.mean_object_bytes = 1 * kMBu;
    p.zipf_alpha = 0.5;
    p.daily_shift = 0.5;
    p.quiet_days = {4, 5};
    out.push_back(p);
  }
  {  // IBM 83: large, 40% put / 60% get, alpha 0.72, low compulsory miss.
    WorkloadProfile p = Base("ibm83", 183);
    p.dataset_bytes = 24 * kGBu;
    p.get_bytes = 94 * kGBu;
    p.put_bytes = 37 * kGBu;
    p.mean_object_bytes = 2 * kMBu;
    p.zipf_alpha = 0.72;
    p.recent_get_fraction = 0.3;
    p.recent_get_spread = 1200.0;
    out.push_back(p);
  }
  {  // IBM 96: large, put-heavy, alpha 0.2, compulsory miss ratio ~0.87.
    WorkloadProfile p = Base("ibm96", 196);
    p.dataset_bytes = 50 * kGBu;
    p.get_bytes = 36 * kGBu;
    p.put_bytes = 46 * kGBu;
    p.mean_object_bytes = 2 * kMBu;
    p.zipf_alpha = 0.20;
    out.push_back(p);
  }
  // Uber: Presto on object storage; 18 days, stable pattern, >70% accesses
  // from periodic jobs, 1 MB blocks.
  for (int i = 1; i <= 3; ++i) {
    WorkloadProfile p = Base("uber" + std::to_string(i), 1000 + static_cast<uint64_t>(i));
    p.duration = 18 * kDay;
    p.dataset_bytes = 40 * kGBu;
    p.get_bytes = 230 * kGBu;
    p.mean_object_bytes = 800 * 1000;
    p.max_object_bytes = 1 * kMBu;  // Uber policy: 1 MB blocks
    p.zipf_alpha = 0.52;
    p.arrival = ArrivalPattern::kPeriodicJobs;
    p.fresh_get_fraction = 0.22;   // streaming ingestion keeps arriving
    p.recent_get_fraction = 0.35;  // periodic jobs re-read recent data
    p.recent_get_spread = 2000.0;
    out.push_back(p);
  }
  {  // VMware: Athena test queries; tiny dataset, very high reuse and
     // request rate, 8 days.
    WorkloadProfile p = Base("vmware", 2000);
    p.duration = 8 * kDay;
    p.dataset_bytes = 215 * kMBu;
    p.get_bytes = 20 * kGBu;
    p.mean_object_bytes = 64 * 1000;
    p.object_size_sigma = 0.6;
    p.zipf_alpha = 0.47;
    out.push_back(p);
  }
  return out;
}

WorkloadProfile ProfileByName(const std::string& name) {
  for (const WorkloadProfile& p : AllProfiles()) {
    if (p.name == name) {
      return p;
    }
  }
  MACARON_CHECK(false && "unknown workload profile");
}

std::vector<std::string> HeadlineProfileNames() {
  return {"ibm9", "ibm12", "ibm18", "ibm55", "ibm83", "ibm96", "uber1", "vmware"};
}

}  // namespace macaron
