// Fig 5: accuracy of the average-latency-curve (ALC) estimation.
//
// (a) A workload that shifts from large to small objects: Symbiosis-style
//     estimation (fixed per-level latencies measured up front x hit ratios)
//     drifts; recalibrating helps; Macaron, which samples latency per access
//     during the miniature simulation, tracks the exact value.
// (b) A bursty workload with duplicate concurrent accesses: Symbiosis counts
//     coalesced requests as cache hits and underestimates latency; Macaron
//     models the request delay.

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/cache/inflight.h"
#include "src/cache/lru_cache.h"
#include "src/cloudsim/latency.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/minisim/alc_bank.h"
#include "src/trace/request_source.h"

using namespace macaron;

namespace {

constexpr uint64_t kClusterCap = 400'000'000;
constexpr uint64_t kOscCap = 2'000'000'000;
constexpr SimDuration kWin = 6 * kHour;

// Exact full-scale two-level simulation against ground-truth latency.
class ExactSim {
 public:
  explicit ExactSim(const GroundTruthLatency* truth)
      : cluster_(kClusterCap), osc_(kOscCap), truth_(truth), rng_(123) {}

  // Returns the access latency.
  double Access(const Request& r) {
    if (auto completion = inflight_.Pending(r.id, r.time)) {
      return static_cast<double>(*completion - r.time);
    }
    if (cluster_.Get(r.id)) {
      return truth_->SampleMs(DataSource::kCacheCluster, r.size, rng_);
    }
    if (osc_.Get(r.id)) {
      cluster_.Put(r.id, r.size);
      return truth_->SampleMs(DataSource::kOsc, r.size, rng_);
    }
    const double lat = truth_->SampleMs(DataSource::kRemoteLake, r.size, rng_);
    inflight_.Insert(r.id, r.time + static_cast<SimTime>(lat) + 1);
    osc_.Put(r.id, r.size);
    cluster_.Put(r.id, r.size);
    return lat;
  }

 private:
  LruCache cluster_;
  LruCache osc_;
  InflightTable inflight_;
  const GroundTruthLatency* truth_;
  Rng rng_;
};

struct Errors {
  double macaron = 0.0;
  double symbiosis = 0.0;
  double symbiosis_recal = 0.0;
  int windows = 0;
};

Errors RunCase(const Trace& trace, const char* label, double mean_bytes_at_start) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator fitted(truth, 400, 5);
  ExactSim exact(&truth);
  AlcBank bank({kClusterCap}, kOscCap, /*ratio=*/1.0, /*salt=*/0, &fitted, 17);

  // Symbiosis latencies measured once at the start (for the initial size mix).
  const double fixed_dram = fitted.FittedMeanMs(DataSource::kCacheCluster,
                                                static_cast<uint64_t>(mean_bytes_at_start));
  const double fixed_osc =
      fitted.FittedMeanMs(DataSource::kOsc, static_cast<uint64_t>(mean_bytes_at_start));
  const double fixed_remote =
      fitted.FittedMeanMs(DataSource::kRemoteLake, static_cast<uint64_t>(mean_bytes_at_start));

  std::printf("\n--- %s ---\n", label);
  std::printf("%8s %10s %10s %10s %12s\n", "window", "exact", "macaron", "symbiosis",
              "symb-recal");
  Errors err;
  double exact_sum = 0.0;
  uint64_t exact_n = 0;
  double window_bytes = 0.0;
  uint64_t window_reqs = 0;
  auto flush_window = [&](int w) {
    const AlcWindow aw = bank.EndWindow();
    const AlcLevelCounts& c = aw.level_counts[0];
    if (c.total() == 0 || exact_n == 0) {
      return;
    }
    const double exact_avg = exact_sum / static_cast<double>(exact_n);
    const double mac_avg = aw.alc.y(0);
    const double n = static_cast<double>(c.total());
    // Symbiosis: no request-delay modeling -> delayed accesses look like
    // cluster hits; latencies fixed from the start.
    const double symb = (static_cast<double>(c.cluster_hits + c.delayed_hits) * fixed_dram +
                         static_cast<double>(c.osc_hits) * fixed_osc +
                         static_cast<double>(c.remote_misses) * fixed_remote) /
                        n;
    const double mean_sz = window_reqs == 0 ? mean_bytes_at_start
                                            : window_bytes / static_cast<double>(window_reqs);
    const double symb_recal =
        (static_cast<double>(c.cluster_hits + c.delayed_hits) *
             fitted.FittedMeanMs(DataSource::kCacheCluster, static_cast<uint64_t>(mean_sz)) +
         static_cast<double>(c.osc_hits) *
             fitted.FittedMeanMs(DataSource::kOsc, static_cast<uint64_t>(mean_sz)) +
         static_cast<double>(c.remote_misses) *
             fitted.FittedMeanMs(DataSource::kRemoteLake, static_cast<uint64_t>(mean_sz))) /
        n;
    std::printf("%8d %10.2f %10.2f %10.2f %12.2f\n", w, exact_avg, mac_avg, symb, symb_recal);
    err.macaron += std::abs(mac_avg - exact_avg) / exact_avg;
    err.symbiosis += std::abs(symb - exact_avg) / exact_avg;
    err.symbiosis_recal += std::abs(symb_recal - exact_avg) / exact_avg;
    ++err.windows;
    exact_sum = 0.0;
    exact_n = 0;
    window_bytes = 0.0;
    window_reqs = 0;
  };
  int w = 0;
  const ReplayBatch chunk = ToChunk(trace.requests);
  SimTime next_boundary = kWin;
  ForEachWindowSegment(
      chunk, kWin, &next_boundary, [&](SimTime) { flush_window(w++); },
      [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          const Request& r = trace.requests[k];
          exact_sum += exact.Access(r);
          ++exact_n;
          window_bytes += static_cast<double>(r.size);
          ++window_reqs;
        }
        bank.ProcessColumns(chunk, begin, end);
      });
  flush_window(w);
  std::printf("MAPE vs exact: macaron %s, symbiosis %s, symbiosis-recalibrated %s\n",
              bench::Percent(err.macaron / err.windows).c_str(),
              bench::Percent(err.symbiosis / err.windows).c_str(),
              bench::Percent(err.symbiosis_recal / err.windows).c_str());
  return err;
}

}  // namespace

int RunFig5AlcAccuracy() {
  bench::PrintHeader("ALC estimation accuracy vs Symbiosis", "Fig 5");
  Rng rng(42);

  // (a) Object-size shift: days 0-2 access 2 MB objects, days 2-4 access
  //     32 KB objects.
  Trace shift;
  {
    ZipfSampler zipf(2000, 0.8);
    for (int i = 0; i < 160000; ++i) {
      const SimTime t = static_cast<SimTime>(i) * (4 * kDay) / 160000;
      const bool late = t > 2 * kDay;
      const ObjectId id = zipf.Sample(rng) + (late ? 100000 : 0);
      shift.requests.push_back({t, id, late ? 32'000u : 2'000'000u, Op::kGet});
    }
  }
  const Errors a = RunCase(shift, "(a) workload shifts from 2MB to 32KB objects", 2'000'000);

  // (b) Bursty duplicate accesses: every second, a burst of 8 requests to
  //     one cold object arrives within a few ms.
  Trace burst;
  {
    ObjectId next = 1;
    for (int s = 0; s < 86400 / 2; ++s) {
      const SimTime base = static_cast<SimTime>(s) * 2000;
      const ObjectId id = next++;
      for (int k = 0; k < 8; ++k) {
        burst.requests.push_back({base + k, id, 500'000, Op::kGet});
      }
    }
    burst.name = "burst";
  }
  const Errors b = RunCase(burst, "(b) duplicate concurrent accesses (false-positive hits)",
                           500'000);

  const bool ok = a.macaron < a.symbiosis && b.macaron < b.symbiosis;
  std::printf("\nShape check (Macaron more accurate than Symbiosis in both cases): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

MACARON_BENCH_MAIN(RunFig5AlcAccuracy)
