// Engine configuration: which approach to run and with what parameters.

#ifndef MACARON_SRC_SIM_ENGINE_CONFIG_H_
#define MACARON_SRC_SIM_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cloudsim/latency.h"
#include "src/common/sim_time.h"
#include "src/osc/osc.h"
#include "src/pricing/price_book.h"
#include "src/pricing/price_schedule.h"

namespace macaron {

namespace obs {
class DecisionTrace;
class MetricsRegistry;
}  // namespace obs

// The approaches compared throughout §7.
enum class Approach {
  kRemote,            // access everything from the remote data lake
  kReplicated,        // full local replica, sync egress + dark data
  kEcpc,              // elastic cloud-provider cache: DRAM-only, auto-scaled
  kFlashEcpc,         // elastic flash cache (the §4.1 future-work medium)
  kMacaron,           // OSC + latency-sized DRAM cache cluster
  kMacaronNoCluster,  // OSC only (cost-minimizing configuration)
  kMacaronTtl,        // OSC with TTL optimization instead of capacity
  kStaticCapacity,    // fixed OSC capacity (no adaptation)
  kStaticTtl,         // fixed TTL (Fig 13 baselines)
};

const char* ApproachName(Approach a);

// Macaron's adaptive approaches (macaron+cc, macaron, macaron-ttl): the
// ones the event engine runs, and the ones whose controller caches
// everything for config.observation before it first optimizes.
inline bool IsMacaronController(Approach a) {
  return a == Approach::kMacaron || a == Approach::kMacaronNoCluster || a == Approach::kMacaronTtl;
}

// ECPC-style approaches: an elastic cache cluster is the only cache level.
// Their controller starts optimizing after one window, not after
// config.observation.
inline bool IsElasticClusterCache(Approach a) {
  return a == Approach::kEcpc || a == Approach::kFlashEcpc;
}

// Every approach that runs a MacaronController.
inline bool UsesController(Approach a) {
  return IsMacaronController(a) || IsElasticClusterCache(a);
}

struct EngineConfig {
  Approach approach = Approach::kMacaronNoCluster;
  PriceBook prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  LatencyScenario scenario = LatencyScenario::kCrossCloudUs;
  uint64_t seed = 7;
  // Latency sampling per GET is the dominant engine cost; disable for
  // cost-only sweeps.
  bool measure_latency = true;

  // Controller cadence.
  SimDuration window = 15 * kMinute;
  SimDuration observation = 1 * kDay;
  double decay_per_day = 0.2;
  double sampling_ratio = 0.05;
  int num_minicaches = 64;
  // Worker threads for the analyzer's mini-simulation fan-out (the local
  // analogue of the paper's serverless fan-out, §6.3). <= 1 runs the banks
  // sequentially; any value yields bit-identical curves.
  int analyzer_threads = 1;
  size_t max_cluster_nodes = 256;

  // Sharded serving (see DESIGN.md "Sharded serving"). `num_shards` is a
  // STRUCTURAL knob: requests are consistent-hash partitioned across
  // `num_shards` independent serving shards, each owning its own OSC block
  // log, DRAM cache-cluster slice, TTL shadow, in-flight table, and RNG
  // stream. num_shards = 1 (the default) reproduces the unsharded engine's
  // outputs exactly; num_shards > 1 models a genuinely sharded deployment
  // (different packing order, different latency draws) and therefore feeds
  // the sweep fingerprint. `shard_threads` is an EXECUTION knob: how many
  // worker threads replay shards concurrently. Like analyzer_threads it can
  // never affect results — shards share no mutable state and merge in fixed
  // shard order — so it is excluded from the fingerprint, and any value
  // produces bit-identical RunResults, decision traces, and metrics.
  int num_shards = 1;
  int shard_threads = 1;

  // Decode-ahead for streamed sources (see request_source.h): while the
  // shards replay chunk N, a background worker decodes and prehashes chunk
  // N+1. An EXECUTION knob like shard_threads — the delivered request
  // stream is identical either way, so it is excluded from the sweep
  // fingerprint; disable to debug or to save the extra thread.
  bool stream_decode_ahead = true;

  // Asynchronous analyzer replay (see mrc_bank.h): mini-sim batch fan-outs
  // are submitted to the shared engine pool and overlap shard serving and
  // chunk decode, joining at window boundaries before the controller reads
  // the report. An EXECUTION knob like shard_threads — outputs are
  // bit-identical either way (the async differential suite pins this) — so
  // it is excluded from the sweep fingerprint; disable to debug or to get
  // strictly synchronous scheduling. Only takes effect when the shared pool
  // has workers (shard_threads or analyzer_threads > 1).
  bool async_analyzer = true;

  // Adversarial economics: repricing events applied to the data-path rates
  // (egress, storage capacity, GET/PUT) at the first window boundary at or
  // after each shock's nominal time. Billing integrals are flushed at the
  // old rates before the swap, and the controller's price book is updated so
  // subsequent optimizations see the new economics. Empty (the default)
  // preserves the historical fingerprint and bit-identical results.
  std::vector<PriceShock> price_shocks;

  // Static-configuration parameters.
  uint64_t static_capacity_bytes = 0;  // kStaticCapacity
  SimDuration static_ttl = 0;          // kStaticTtl

  // Replicated baseline model (§7.1): total dataset inflated by dark data,
  // synced under a retention-driven churn rate.
  double dark_data_fraction = 0.7;
  SimDuration retention = 90 * kDay;

  PackingConfig packing;

  // Cache priming of newly launched cluster nodes (§6.2); disable for the
  // priming ablation.
  bool enable_priming = true;

  // Extension (beyond the paper): when the optimizer repeatedly selects the
  // minimum candidate capacity — i.e. caching is not paying for itself —
  // stop admitting objects into the OSC (saving packing PUTs and capacity)
  // until the optimizer asks for a larger cache again.
  bool enable_admission_bypass = false;
  int admission_bypass_windows = 3;

  // Total-data-size hint for the mini-cache grid; 0 = derive from the trace.
  uint64_t dataset_bytes_hint = 0;
  // Mini-cache grid floor (the paper uses 50 GB at full scale; default is
  // the same value at our 1/1000 byte scale).
  uint64_t min_minicache_bytes = 50ull * 1000 * 1000;

  // Scale applied to infrastructure prices (VM, cache nodes, Lambda, node
  // memory) so that infra cost keeps the paper's proportion to data cost at
  // the generator's reduced byte scale. The generated workloads carry
  // 0.2-1.0e-3 of the paper's byte volumes; 0.3e-3 is the median ratio.
  double infra_scale = 0.3e-3;

  // Observability sinks (see src/obs/). Both default to nullptr = disabled:
  // no allocation, no output, and bit-identical results either way. These
  // are borrowed side channels, written during Run(); they are deliberately
  // EXCLUDED from the sweep fingerprint (src/sweep/fingerprint.cc) so warm
  // cached results remain valid whether or not observability was attached.
  obs::DecisionTrace* decision_trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// What runs a config: an engine, or an offline oracle (which reads no
// approach-specific field).
enum class EngineKind { kReplay, kEvent, kOracle };

// Throws std::invalid_argument naming the field for a config that `engine`
// would otherwise stop the process for with a MACARON_CHECK (in the sharded
// runtime, either engine, the controller or the exact oracle). Both
// engines' Run and SweepScheduler::Submit call it first.
void ValidateConfig(const EngineConfig& config, EngineKind engine);

}  // namespace macaron

#endif  // MACARON_SRC_SIM_ENGINE_CONFIG_H_
