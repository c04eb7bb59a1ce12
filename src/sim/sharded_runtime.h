// The sharded serving runtime under both engines (DESIGN.md "Sharded
// serving").
//
// Requests are consistent-hash partitioned across `num_shards` serving shards
// at ingest (one Mix64 per request, reused by ShardRouter::ShardOf and every
// cache level below). Each shard owns every piece of per-object serving
// state: OSC, cluster slice, TTL shadow, in-flight table, RNG stream,
// counters, cost meter and integrals. Windows replay shard-parallel on a
// pool of `shard_threads` workers while the controller observes the window's
// raw stream on the calling thread. Shards share no mutable state during
// replay, and every cross-shard fold (controller inputs at boundaries, the
// final RunResult merge) runs in fixed shard order 0..S-1, so the thread
// count can never affect any output bit. num_shards = 1 routes everything
// through shard 0 and reproduces the historical sequential engine exactly.
//
// The request stream arrives through a RequestSource, one SoA chunk at a
// time (decode-ahead overlaps the next chunk's decode with replay), so a
// trace never has to exist in memory at once. Windows are split into
// chunk-bounded segments; the split preserves per-shard request order,
// controller observation order, RNG streams and the boundary sequence, so
// streamed and materialized replays of the same stream are bit-identical.
//
// The runtime owns set-up, billing (one storage integral per shard), the
// Macaron family's cache effects (OscHit, Admit, Forget), the shard
// partition and batch loop, the window-boundary phases, the per-shard
// decision apply, decision recording, the merge and the run loop; Finalize
// sorts the decision timelines into apply order before the merge. An engine
// supplies only its policy: a per-request handler, bound at compile time
// through ServeBatch, plus per-window hooks for boundary maintenance,
// decisions and the end of the run.

#ifndef MACARON_SRC_SIM_SHARDED_RUNTIME_H_
#define MACARON_SRC_SIM_SHARDED_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/obs/metrics.h"
#include "src/osc/osc.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sim/shard_router.h"
#include "src/trace/request_source.h"

namespace macaron {

class ShardedRuntime {
 public:
  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  RunResult Run();

 protected:
  // All state one serving shard owns. Everything mutated on a worker thread
  // during replay lives here; a shard never touches another shard's fields.
  struct Shard {
    int index = 0;

    // Macaron-family components (per-shard slices).
    std::unique_ptr<ObjectStorageCache> osc;
    std::unique_ptr<CacheCluster> cluster;
    std::unique_ptr<TtlCache> ttl_shadow;
    InflightTable inflight;
    Rng rng{0};

    // Partial RunResult: merged deterministically after the run.
    CostMeter costs;
    uint64_t gets = 0;
    uint64_t cluster_hits = 0;
    uint64_t osc_hits = 0;
    uint64_t remote_fetches = 0;
    uint64_t delayed_hits = 0;
    uint64_t egress_bytes = 0;
    PercentileTracker latency_ms;

    // Replicated baseline state (id-partitioned, so per-shard sets are an
    // exact partition of the global first-touch set).
    std::unordered_set<ObjectId> seen;
    uint64_t known_dataset_bytes = 0;

    // Integration state. Each integral accumulates a piecewise-constant
    // function that only changes at this shard's own event times, so the
    // per-shard integrals are exact (not an approximation of the global
    // ones) and sum to the unsharded values. `stored_byte_ms` is the
    // resident bytes of the OSC or, for the replicated baseline, of the
    // replica (whose churn egress is billed from the same integral). When a
    // price shock lands it is flushed into `costs` at the old rates and reset
    // (the flushed lifetime total keeps mean_stored_bytes exact); without
    // shocks the single flush happens in Finalize, which reproduces the
    // historical addition sequence bit for bit.
    SimTime last_integrate = 0;
    double stored_byte_ms = 0.0;  // resident bytes * ms
    double node_ms = 0.0;         // cache/ECPC node count * ms
    double stored_byte_ms_flushed = 0.0;

    // Per-shard metrics registry (allocated only when the run has a
    // metrics sink); folded into the engine sink after the run.
    std::unique_ptr<obs::MetricsRegistry> metrics;

    // This segment's requests, SoA columns carrying the ingest-time hash.
    ReplayBatch batch;
  };

  ShardedRuntime(const EngineConfig& cfg, RequestSource& source);
  ~ShardedRuntime() = default;

  // --- Engine policy hooks ---

  // Serves `sh.batch`: an engine implements this as one ServeBatch call with
  // its per-request handler. Called once per shard per segment, on a pool
  // worker.
  virtual void ServeShard(Shard& sh) = 0;
  // Per-shard boundary maintenance at `t`, on a pool worker. The default
  // integrates through `t`, flushes the open block, expires the TTL shadow
  // and collects garbage; engines extend it.
  virtual void MaintainShard(Shard& sh, SimTime t);
  // Acts on an optimized decision taken at boundary `t`, shards idle.
  virtual void ApplyDecision(SimTime t, const ReconfigDecision& d) = 0;
  // After the last boundary, before Finalize sorts the timelines and merges.
  virtual void FinishRun() {}

  // --- Shared pieces for the policies ---

  // The shard batch loop: prefetches the OSC order index and TTL shadow a
  // few requests ahead and hands each request's columns to `handle`
  // (signature: (Shard&, SimTime, ObjectId, uint64_t size, Op, uint64_t h)).
  // The handler is a template argument, so the per-request call is direct.
  template <typename Handler>
  void ServeBatch(Shard& sh, Handler&& handle);

  // Advances the shard's cost integrals to `t`.
  void Integrate(Shard& sh, SimTime t);

  // Bills one fetch of `size` bytes from the remote data lake: the fetch
  // count, its egress bytes and dollars, and one GET op.
  void ChargeRemoteFetch(Shard& sh, uint64_t size) {
    ++sh.remote_fetches;
    sh.egress_bytes += size;
    sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(size));
    sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
  }

  // The Macaron family's cache effects, one copy for both engines; each
  // keeps the call order the output bytes depend on. OscHit serves a GET
  // from the OSC if it holds `id`: counts the hit, touches the TTL shadow and
  // promotes into the cluster slice (false on a miss). Admit puts `id` into
  // the OSC and TTL shadow when `to_osc`, then into the cluster slice.
  // Forget drops `id` from the OSC, TTL shadow, cluster slice and in-flight
  // table.
  bool OscHit(Shard& sh, SimTime now, ObjectId id, uint64_t h, uint64_t size);
  void Admit(Shard& sh, SimTime now, ObjectId id, uint64_t h, uint64_t size,
             bool to_osc = true);
  void Forget(Shard& sh, ObjectId id, uint64_t h);

  // Records a Macaron decision applied at `at` in the run's timelines
  // (Finalize sorts them into apply order and derives the first optimized
  // capacity and TTL).
  void RecordDecision(SimTime at, const ReconfigDecision& d);

  // Applies the shard's share of `d` at `now`: evict the OSC to its share,
  // then resize the cluster slice and prime new nodes if enable_priming;
  // in TTL mode, set the TTL and collect garbage.
  void ApplyShardDecision(Shard& sh, SimTime now, const ReconfigDecision& d);

  const EngineConfig& cfg_;
  const SourceInfo& info_;
  PriceBook prices_;
  GroundTruthLatency truth_;
  FittedLatencyGenerator fitted_;
  int num_shards_;
  ThreadPool pool_;
  RunResult result_;

  std::vector<Shard> shards_;
  // Declared after pool_: the controller's bank destructors join any
  // in-flight async fan-out, which needs the pool alive.
  std::unique_ptr<MacaronController> controller_;

  // Cluster economics: Macaron's own DRAM tier by default, the elastic
  // cache's medium (DRAM for ECPC, NVMe for flash-ECPC) otherwise.
  uint64_t node_usable_ = 0;
  double node_price_per_hour_ = 0.0;

 private:
  bool IsMacaronFamily() const;
  bool UsesTtlEviction() const {
    return cfg_.approach == Approach::kMacaronTtl || cfg_.approach == Approach::kStaticTtl;
  }

  void Setup();
  void ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end);
  void WindowBoundary(SimTime t);
  void ChargeOscOps(Shard& sh);
  // Capacity dollars of `byte_ms` resident byte-milliseconds at the active
  // rate, and the replica's churn bytes for the shard's unflushed integral.
  double StorageCostUsd(double byte_ms) const {
    return byte_ms / 1.0e9 / static_cast<double>(kBillingMonth) *
           prices_.object_storage_per_gb_month;
  }
  uint64_t ChurnBytes(const Shard& sh) const {
    return cfg_.approach == Approach::kReplicated
               ? static_cast<uint64_t>(sh.stored_byte_ms / static_cast<double>(cfg_.retention))
               : 0;
  }
  // Price-shock support: bills a shard's price-sensitive integrals (and any
  // pending OSC ops) at the currently active rates and resets them, then
  // swaps the book. Only ever called at window boundaries (shards idle).
  void FlushDataIntegrals(Shard& sh);
  void ApplyPriceShocks(SimTime t);
  // Cumulative data-path spend (egress + capacity + operations) through the
  // last Integrate, unflushed integrals valued at the active rates; folded
  // in fixed shard order on the calling thread.
  double RealizedDataCostUsd() const;
  void Finalize();

  RequestSource& source_;
  ShardRouter router_;

  // ReplaySegment scratch for the count-then-scatter shard partition
  // (per-row shard ids, then per-shard write cursors), reused across
  // segments.
  std::vector<uint32_t> shard_of_scratch_;
  std::vector<size_t> shard_cursor_scratch_;

  // Repricing events, aligned to window boundaries and sorted by time;
  // next_shock_ indexes the first not-yet-applied one. prices_ is only
  // mutated at boundaries, when no shard worker is running.
  std::vector<PriceShock> shocks_;
  size_t next_shock_ = 0;
};

template <typename Handler>
void ShardedRuntime::ServeBatch(Shard& sh, Handler&& handle) {
  const ReplayBatch& b = sh.batch;
  // Prefetches the OSC order index / TTL shadow of the request
  // kPrefetchAhead rows ahead (replay_batch.h). The cluster is skipped:
  // reaching its per-node index would duplicate ring routing here.
  const size_t n = b.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      const uint64_t ahead = b.hashes[i + kPrefetchAhead];
      if (sh.osc != nullptr) {
        sh.osc->PrefetchPrehashed(ahead);
      }
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->PrefetchPrehashed(ahead);
      }
    }
    handle(sh, b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i]);
  }
}

inline void ShardedRuntime::Integrate(Shard& sh, SimTime t) {
  if (t <= sh.last_integrate) {
    return;
  }
  const double dt = static_cast<double>(t - sh.last_integrate);
  if (sh.osc != nullptr) {
    sh.stored_byte_ms += static_cast<double>(sh.osc->stored_bytes()) * dt;
  } else if (sh.known_dataset_bytes != 0) {
    // The replica holds the dataset seen so far, inflated by dark data.
    sh.stored_byte_ms += static_cast<double>(sh.known_dataset_bytes) /
                         (1.0 - cfg_.dark_data_fraction) * dt;
  }
  if (sh.cluster != nullptr) {
    sh.node_ms += static_cast<double>(sh.cluster->num_nodes()) * dt;
  }
  sh.last_integrate = t;
}

inline bool ShardedRuntime::OscHit(Shard& sh, SimTime now, ObjectId id, uint64_t h,
                                   uint64_t size) {
  if (!sh.osc->LookupPrehashed(id, h)) {
    return false;
  }
  ++sh.osc_hits;
  if (sh.ttl_shadow != nullptr) {
    sh.ttl_shadow->GetPrehashed(id, h, now);
  }
  if (sh.cluster != nullptr) {
    sh.cluster->PutHashed(id, h, size);  // promote
  }
  return true;
}

inline void ShardedRuntime::Admit(Shard& sh, SimTime now, ObjectId id, uint64_t h,
                                  uint64_t size, bool to_osc) {
  if (to_osc) {
    sh.osc->AdmitPrehashed(id, h, size);
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->PutPrehashed(id, h, size, now);
    }
  }
  if (sh.cluster != nullptr) {
    sh.cluster->PutHashed(id, h, size);
  }
}

inline void ShardedRuntime::Forget(Shard& sh, ObjectId id, uint64_t h) {
  sh.osc->DeletePrehashed(id, h);
  if (sh.ttl_shadow != nullptr) {
    sh.ttl_shadow->ErasePrehashed(id, h);
  }
  if (sh.cluster != nullptr) {
    sh.cluster->DeleteHashed(id, h);
  }
  sh.inflight.ErasePrehashed(id, h);
}

}  // namespace macaron

#endif  // MACARON_SRC_SIM_SHARDED_RUNTIME_H_
