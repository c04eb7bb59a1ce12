// Serial layer replica: replays a request stream through the layers' public
// entry points in the replay engine's order, timing each layer from outside.
//
// The engines keep their per-layer calls private, so the benchmark cannot
// put spans inside them. Instead it rebuilds the replay engine's serving
// path from the same public components — MacaronController (analyzer and
// mini-sim banks), ObjectStorageCache, CacheCluster, InflightTable and
// FittedLatencyGenerator — with the same derivations as the engine's Setup,
// the same shard routing (ShardRouter / ShareOf) and the same chunk and
// window-boundary sequence. Per-chunk, per-segment and per-window calls are
// timed one by one; per-request calls are timed on a sample of the requests
// and scaled up, because a span around every request would cost more than
// some of the calls it measures. Counts are exact.
//
// Only the Macaron capacity approaches are replicated (with and without the
// DRAM cluster). With `event_setup` the controller is configured the way the
// event engine configures it; serving still follows the replay engine, which
// admits at request time where the event engine admits at fetch completion,
// so counters then differ and the difference is reported, not checked.

#ifndef MACARON_PERFBENCH_REPLICA_H_
#define MACARON_PERFBENCH_REPLICA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/sim/engine_config.h"
#include "src/trace/request_source.h"

namespace macaron {
namespace perfbench {

struct ReplicaReport {
  // Exact counters, comparable with RunResult.
  uint64_t requests = 0;
  uint64_t gets = 0;
  uint64_t cluster_hits = 0;
  uint64_t osc_hits = 0;
  uint64_t remote_fetches = 0;
  uint64_t delayed_hits = 0;
  int reconfigs = 0;
  // (window boundary, OSC capacity) of every optimized window.
  std::vector<std::pair<SimTime, uint64_t>> osc_capacity;
  uint64_t draws = 0;  // FittedLatencyGenerator::SampleMs calls, all callers

  // Per-call timings (ns).
  PercentileTracker decode;       // RequestSource::FillNext, per chunk
  PercentileTracker observe;      // MacaronController::ObserveColumns, per segment
  PercentileTracker reconfigure;  // MacaronController::Reconfigure, per window
  PercentileTracker maintain;     // OSC FlushOpenBlock/RunGc/EvictToCapacity/TakeOps, per window
  PercentileTracker rescale;      // CacheCluster::Resize + Prime, per optimized window
  PercentileTracker sweep;        // InflightTable::Sweep over all shards, per window
  PercentileTracker draw;         // SampleMs, per sampled draw
  // Per-request layer time on the sampled requests (ns); each entry is one
  // request that called the layer at least once.
  PercentileTracker osc_req;
  PercentileTracker cluster_req;

  // Serving-path attribution. Clock reads around single calls inflate what
  // they measure (they cost about as much as a cache probe and stop the CPU
  // from overlapping one request's misses with the next), so the sampled
  // spans only split the serving time; the total comes from whole shard
  // loops minus the sampled requests, scaled to every request.
  double serving_loop_ns = 0.0;     // whole shard-batch loops, sampled requests included
  double sampled_outer_ns = 0.0;    // the sampled requests, one span each
  uint64_t sampled_requests = 0;
  double osc_sampled_ns = 0.0;      // inner spans of the sampled requests
  double cluster_sampled_ns = 0.0;
  double inflight_sampled_ns = 0.0;
  double draw_sampled_ns = 0.0;

  double wall_s = 0.0;  // first FillNext to the final boundary

  // Estimated serving time of the run had no request been timed.
  double ServingNs() const {
    if (sampled_requests >= requests) {
      return sampled_outer_ns;
    }
    return (serving_loop_ns - sampled_outer_ns) * static_cast<double>(requests) /
           static_cast<double>(requests - sampled_requests);
  }
  // A serving layer's share of ServingNs(), in proportion to its spans.
  double ServingShareNs(double sampled_ns) const {
    return sampled_outer_ns > 0.0 ? ServingNs() * sampled_ns / sampled_outer_ns : 0.0;
  }
};

// Replays `source` (rewound first) under `cfg`, serially. `cfg.approach`
// must be kMacaron or kMacaronNoCluster.
ReplicaReport RunReplica(const EngineConfig& cfg, bool event_setup, RequestSource& source);

}  // namespace perfbench
}  // namespace macaron

#endif  // MACARON_PERFBENCH_REPLICA_H_
