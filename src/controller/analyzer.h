// Workload Analyzer (§5.2).
//
// Per optimization window the analyzer runs the miniature simulations
// (MRC/BMC bank, two-level ALC bank, and optionally the TTL bank), then
// aggregates metrics:
//   * for cost: exponentially decayed, request-weighted averages of the
//     window MRC and BMC (old knowledge fades by decay^days);
//   * for performance: only the latest ALC matters.
// It also models the serverless fan-out used by the prototype: per-window
// Lambda runtime proportional to the window's request count, billed in
// GB-seconds (§6.3, §7.7).

#ifndef MACARON_SRC_CONTROLLER_ANALYZER_H_
#define MACARON_SRC_CONTROLLER_ANALYZER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cloudsim/latency.h"
#include "src/common/curve.h"
#include "src/common/sim_time.h"
#include "src/common/thread_pool.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/ttl_bank.h"

namespace macaron {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

// Exponentially decayed, weight-averaged scalar (same scheme as
// DecayedCurveAverage, for request counts and object sizes).
class DecayedScalarAverage {
 public:
  explicit DecayedScalarAverage(double decay_per_day) : decay_per_day_(decay_per_day) {}

  void Add(double value, double weight, double elapsed_days);
  bool empty() const { return total_weight_ <= 0.0; }
  double Average() const { return total_weight_ <= 0.0 ? 0.0 : weighted_sum_ / total_weight_; }

 private:
  double decay_per_day_;
  double weighted_sum_ = 0.0;
  double total_weight_ = 0.0;
};

struct AnalyzerConfig {
  double sampling_ratio = 0.05;
  // Replacement policy emulated by the MRC/BMC mini-caches (must match the
  // OSC's deployed policy).
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;
  int num_minicaches = 64;
  uint64_t min_capacity_bytes = 50ull * 1000 * 1000;  // scaled 50 GB floor
  uint64_t max_capacity_bytes = 0;  // the workload's total data size estimate
  double decay_per_day = 0.2;       // gamma^(1 day); 1.0 disables decay
  bool enable_alc = false;
  // ALC smoothing: performance decisions use the *recent* access pattern
  // (§5.2 uses the latest window; at low request rates a single window is
  // too noisy, so we keep a strongly recency-weighted average — the default
  // corresponds to a ~2-hour half-life).
  double alc_decay_per_day = 0.00025;
  bool enable_ttl = false;
  SimDuration max_ttl = 7 * kDay;
  uint64_t seed = 42;
  // Mini-simulation fan-out: worker threads replaying mini-cache grid
  // points at batch boundaries. <= 1 runs sequentially; any value produces
  // bit-identical curves (grid points share no mutable state). The
  // analyzer owns no threads itself — this knob sizes the shared engine
  // pool the banks are wired to via SetExecution, so analyzer and serving
  // shards draw from one budget instead of oversubscribing the machine.
  int threads = 1;
  // Serverless runtime model: seconds = base + per_request * sampled reqs.
  double lambda_base_seconds = 0.5;
  double lambda_seconds_per_request = 1e-4;
};

// What the controller consumes each window.
struct AnalyzerReport {
  Curve aggregated_mrc;
  Curve aggregated_bmc;
  std::optional<Curve> latest_alc;
  std::optional<TtlWindowCurves> ttl_curves_latest;
  std::optional<Curve> aggregated_ttl_mrc;
  std::optional<Curve> aggregated_ttl_bmc;
  std::optional<Curve> aggregated_ttl_capacity;
  double expected_window_reads = 0.0;
  double expected_window_writes = 0.0;
  // GET bytes per window, decayed with the same request weighting as the
  // BMC (so "no cache" egress estimates are comparable with BMC values).
  double expected_window_get_bytes = 0.0;
  double mean_object_bytes = 0.0;
  // Serverless accounting for this window's analysis.
  double lambda_gb_seconds = 0.0;
  double analysis_seconds = 0.0;
  uint64_t window_requests = 0;
};

class WorkloadAnalyzer {
 public:
  WorkloadAnalyzer(const AnalyzerConfig& config, const LatencySampler* latency);

  // Wires the shared execution context: the banks fan batch replays across
  // `pool` (nullptr reverts to sequential), and with `async` they submit
  // those fan-outs instead of joining, overlapping replay with whatever the
  // ingest thread does next (see sampled_batch_pipeline.h). EndWindow
  // always joins before aggregating, so the report — and every output
  // derived from it — is bit-identical for any pool size, sync or async.
  void SetExecution(ThreadPool* pool, bool async);

  // Feeds rows [begin, end) of `chunk` (full stream; sampling happens
  // inside the banks): each bank samples and compacts straight from the
  // columns, and the window scalars fold from the op/size columns in one
  // pass.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  // Ends the window: runs aggregation and returns the report.
  // `elapsed` is the window duration (for decay and BMC normalization).
  AnalyzerReport EndWindow(SimDuration elapsed);

  // Updates the ALC bank's emulated OSC capacity after a reconfiguration.
  void SetOscCapacity(uint64_t bytes);

  // Registers analyzer + mini-sim bank counters. nullptr detaches (the
  // default): every increment site stays behind a pointer check, so the
  // disabled mode costs one predictable branch at most.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  const AnalyzerConfig& config() const { return config_; }

 private:
  AnalyzerConfig config_;
  MrcBank mrc_bank_;
  std::unique_ptr<AlcBank> alc_bank_;
  std::unique_ptr<TtlBank> ttl_bank_;
  DecayedCurveAverage mrc_avg_;
  DecayedCurveAverage bmc_avg_;
  DecayedCurveAverage alc_avg_;
  std::unique_ptr<DecayedCurveAverage> ttl_mrc_avg_;
  std::unique_ptr<DecayedCurveAverage> ttl_bmc_avg_;
  std::unique_ptr<DecayedCurveAverage> ttl_cap_avg_;
  DecayedScalarAverage reads_avg_;
  DecayedScalarAverage writes_avg_;
  DecayedScalarAverage object_bytes_avg_;
  DecayedScalarAverage get_bytes_avg_;
  uint64_t window_reads_ = 0;
  uint64_t window_writes_ = 0;
  uint64_t window_bytes_ = 0;
  uint64_t window_get_bytes_ = 0;
  uint64_t window_ops_with_bytes_ = 0;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_CONTROLLER_ANALYZER_H_
