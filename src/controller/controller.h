// Macaron controller (§4.2, §5): adaptive cache management.
//
// Owns the Workload Analyzer, triggers optimization at a fixed cadence after
// the observation period, and produces reconfiguration decisions: the
// cost-minimizing OSC capacity (or TTL for Macaron-TTL) and, when the cache
// cluster is enabled, the latency-driven cluster size. It also models the
// end-to-end reconfiguration pipeline timing of §7.7.

#ifndef MACARON_SRC_CONTROLLER_CONTROLLER_H_
#define MACARON_SRC_CONTROLLER_CONTROLLER_H_

#include <cstdint>
#include <optional>

#include "src/controller/analyzer.h"
#include "src/controller/cluster_sizer.h"
#include "src/controller/optimizer.h"
#include "src/controller/ttl_optimizer.h"
#include "src/pricing/price_book.h"

namespace macaron {

namespace obs {
class Counter;
class DecisionTrace;
class MetricsRegistry;
}  // namespace obs

enum class OptimizationMode {
  kCapacity,  // Macaron: optimize OSC capacity
  kTtl,       // Macaron-TTL: optimize the eviction TTL
};

struct ControllerConfig {
  SimDuration window = 15 * kMinute;
  SimDuration observation = 1 * kDay;
  AnalyzerConfig analyzer;
  OptimizationMode mode = OptimizationMode::kCapacity;
  CapacityPricing capacity_pricing = CapacityPricing::kObjectStorage;

  bool enable_cluster = false;
  size_t max_cluster_nodes = 256;
  // Serving shards the cluster fleet is split across (engine_config.h
  // num_shards): node counts are kept a multiple of this so every shard
  // runs an identical whole-node slice. 1 = unsharded (no rounding).
  size_t cluster_shards = 1;
  double cluster_latency_target_ms = 0.0;  // replica-equivalent latency
  // Cap cluster spend at this fraction of the expected per-window data cost
  // so the latency tier stays proportionate to the workload's bill (§7.5
  // reports the cache cluster adding ~30% on top of Macaron's cost).
  double cluster_budget_fraction = 0.3;

  // Packing parameters (for the op-cost term of the expected-cost model).
  bool packing_enabled = true;
  uint64_t packing_block_bytes = 16ull * 1000 * 1000;
  uint32_t packing_max_objects = 40;
};

struct ReconfigDecision {
  // False while still inside the observation period (policy: cache all).
  bool optimized = false;
  uint64_t osc_capacity = 0;
  SimDuration ttl = 0;
  size_t cluster_nodes = 0;
  bool cluster_changed = false;
  Curve cost_curve;  // expected-cost curve behind the decision
  std::optional<Curve> latest_alc;
  // Expected per-window demand (for admission-bypass style decisions).
  double expected_window_reads = 0.0;
  double expected_window_get_bytes = 0.0;
  double mean_object_bytes = 0.0;
  // Overhead accounting (§7.7).
  double lambda_gb_seconds = 0.0;
  double analysis_seconds = 0.0;
  double reconfig_seconds = 0.0;
};

class MacaronController {
 public:
  MacaronController(const ControllerConfig& config, const PriceBook& prices,
                    const LatencySampler* latency);

  // Feeds rows [begin, end) of a decoded SoA chunk straight into the
  // analyzer (see WorkloadAnalyzer::ProcessColumns).
  void ObserveColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    analyzer_.ProcessColumns(chunk, begin, end);
  }

  // Wires the shared execution context through to the analyzer's banks (see
  // WorkloadAnalyzer::SetExecution). Decisions and reports are bit-identical
  // for any pool, sync or async.
  void SetExecution(ThreadPool* pool, bool async) { analyzer_.SetExecution(pool, async); }

  // Whether optimization is active at `now` (past the observation period).
  bool PastObservation(SimTime now) const { return now >= config_.observation; }

  // Runs one optimization at the end of a window. `garbage_bytes` is the
  // OSC's current packing garbage.
  ReconfigDecision Reconfigure(SimTime now, uint64_t garbage_bytes);

  const ControllerConfig& config() const { return config_; }
  WorkloadAnalyzer& analyzer() { return analyzer_; }
  const PriceBook& prices() const { return prices_; }

  // Swaps the active price book (a repricing event took effect). Subsequent
  // optimizations — capacity/TTL cost models and cluster budget caps — use
  // the new rates; decisions already taken are unaffected.
  void UpdatePrices(const PriceBook& prices) { prices_ = prices; }

  // Effective objects-per-block for a mean object size (capped by both the
  // per-block object limit and the block byte budget).
  double ObjectsPerBlock(double mean_object_bytes) const;

  // Attaches observability sinks (both may be nullptr, the default). With a
  // trace attached, every Reconfigure appends one DecisionRecord; with a
  // registry attached, controller + analyzer + mini-sim counters register.
  // Neither changes any decision — pure side channel.
  void SetObservability(obs::DecisionTrace* trace, obs::MetricsRegistry* metrics);

 private:
  ControllerConfig config_;
  PriceBook prices_;
  WorkloadAnalyzer analyzer_;
  size_t prev_cluster_nodes_ = 0;
  uint64_t prev_osc_capacity_ = 0;
  uint64_t window_index_ = 0;
  obs::DecisionTrace* trace_ = nullptr;
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* optimize_counter_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_CONTROLLER_CONTROLLER_H_
