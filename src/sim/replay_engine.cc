#include "src/sim/replay_engine.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/replay_batch.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/osc/osc.h"
#include "src/sim/shard_router.h"
#include "src/trace/request_source.h"
#include "src/trace/trace.h"

namespace macaron {

const char* ApproachName(Approach a) {
  switch (a) {
    case Approach::kRemote:
      return "remote";
    case Approach::kReplicated:
      return "replicated";
    case Approach::kEcpc:
      return "ecpc";
    case Approach::kFlashEcpc:
      return "flash-ecpc";
    case Approach::kMacaron:
      return "macaron+cc";
    case Approach::kMacaronNoCluster:
      return "macaron";
    case Approach::kMacaronTtl:
      return "macaron-ttl";
    case Approach::kStaticCapacity:
      return "static-capacity";
    case Approach::kStaticTtl:
      return "static-ttl";
    default:
      return "unknown";
  }
}

std::string RunResult::Summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s/%s: total=$%.4f (egress=%.4f cap=%.4f op=%.4f infra=%.4f cluster=%.4f "
                "sls=%.4f) hits[cc:osc:rem:dly]=%llu:%llu:%llu:%llu avg_lat=%.1fms",
                trace_name.c_str(), approach_name.c_str(), costs.Total(),
                costs.Get(CostCategory::kEgress), costs.Get(CostCategory::kCapacity),
                costs.Get(CostCategory::kOperation), costs.Get(CostCategory::kInfra),
                costs.Get(CostCategory::kClusterNodes), costs.Get(CostCategory::kServerless),
                static_cast<unsigned long long>(cluster_hits),
                static_cast<unsigned long long>(osc_hits),
                static_cast<unsigned long long>(remote_fetches),
                static_cast<unsigned long long>(delayed_hits), MeanLatencyMs());
  return buf;
}

namespace {

// Internal run state for one trace replay.
//
// The engine is natively sharded (DESIGN.md "Sharded serving"): requests
// are consistent-hash partitioned across `num_shards` serving shards at
// ingest (one Mix64 per request, reused by ShardRouter::ShardOf and every
// cache level below), each shard owns every piece of per-object serving
// state (OSC, cluster slice, TTL shadow, in-flight table, RNG stream,
// counters, cost meter, integrals), and windows replay shard-parallel on a
// pool of `shard_threads` workers while the controller observes the
// window's raw stream on the calling thread. Shards share no mutable state
// during replay, and all cross-shard aggregation (controller inputs at
// boundaries, the final RunResult merge) folds in fixed shard order
// 0..S-1, so the thread count can never affect any output bit.
// num_shards = 1 routes everything through shard 0 and reproduces the
// historical sequential engine exactly.
//
// The request stream arrives through a RequestSource, one SoA chunk at a
// time (decode-ahead overlaps the next chunk's decode with replay), so a
// trace never has to exist in memory at once. Windows are split into
// chunk-bounded segments; the split preserves per-shard request order,
// controller observation order, RNG streams, and the boundary sequence, so
// streamed and materialized replays of the same stream are bit-identical.
class Runner {
 public:
  Runner(const EngineConfig& cfg, RequestSource& source)
      : cfg_(cfg),
        source_(source),
        info_(source.Info()),
        prices_(ScaledInfraPrices(cfg.prices, cfg.infra_scale)),
        truth_(cfg.scenario),
        fitted_(truth_, /*samples_per_bucket=*/400, cfg.seed ^ 0xfeed),
        num_shards_(std::max(cfg.num_shards, 1)),
        router_(num_shards_),
        // One shared pool serves both serving shards and the analyzer's
        // mini-sim fan-outs: its size is the larger of the two demands, so
        // analyzer_threads no longer spawns a second pool that would
        // oversubscribe the machine (threads are a shared budget; any size
        // produces bit-identical outputs).
        pool_(std::max(std::min(std::max(cfg.shard_threads, 1), num_shards_),
                       std::min(std::max(cfg.analyzer_threads, 1), 1024))) {}

  RunResult Run();

 private:
  // All state one serving shard owns. Everything mutated on a worker thread
  // during replay lives here; a shard never touches another shard's fields.
  struct Shard {
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
    // ones) and sum to the unsharded values. When a price shock lands, the
    // price-sensitive integrals are flushed into `costs` at the old rates
    // and reset (the *_flushed lifetime totals keep mean_stored_bytes
    // exact); without shocks the single flush happens in Finalize, which
    // reproduces the historical addition sequence bit for bit.
    SimTime last_integrate = 0;
    double osc_byte_ms = 0.0;      // object-storage resident bytes * ms
    double replica_byte_ms = 0.0;  // replica dataset bytes * ms
    double node_ms = 0.0;          // cache/ECPC node count * ms
    double churn_byte_ms = 0.0;    // replica dataset bytes * ms (churn egress)
    double osc_byte_ms_flushed = 0.0;
    double replica_byte_ms_flushed = 0.0;

    // Per-shard metrics registry (allocated only when the run has a
    // metrics sink); folded into the engine sink after the run.
    std::unique_ptr<obs::MetricsRegistry> metrics;

    // This window's requests, SoA columns carrying the ingest-time hash.
    ReplayBatch batch;
  };

  bool IsMacaronFamily() const {
    switch (cfg_.approach) {
      case Approach::kMacaron:
      case Approach::kMacaronNoCluster:
      case Approach::kMacaronTtl:
      case Approach::kStaticCapacity:
      case Approach::kStaticTtl:
        return true;
      default:
        return false;
    }
  }
  bool UsesController() const {
    return cfg_.approach == Approach::kMacaron || cfg_.approach == Approach::kMacaronNoCluster ||
           cfg_.approach == Approach::kMacaronTtl || IsElasticClusterCache();
  }
  // ECPC-style approaches: an elastic cache cluster is the only cache level.
  bool IsElasticClusterCache() const {
    return cfg_.approach == Approach::kEcpc || cfg_.approach == Approach::kFlashEcpc;
  }
  bool UsesTtlEviction() const {
    return cfg_.approach == Approach::kMacaronTtl || cfg_.approach == Approach::kStaticTtl;
  }

  void Setup();
  void ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end);
  void ReplayShardBatch(Shard& sh);
  // Request fields arrive as columns straight from the shard batch; no
  // Request struct is materialized on the replay path. `h` is Mix64(id),
  // computed once at ingest and reused by every cache level.
  void ProcessRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void WindowBoundary(SimTime t);
  void ApplyDecision(SimTime t, const ReconfigDecision& d);
  void Finalize();
  void Integrate(Shard& sh, SimTime t);
  void ChargeOscOps(Shard& sh);
  // Price-shock support: bills a shard's price-sensitive integrals (and any
  // pending OSC ops) at the currently active rates and resets them, then
  // swaps the book. Only ever called at window boundaries (shards idle).
  void FlushDataIntegrals(Shard& sh);
  void ApplyPriceShocks(SimTime t);
  // Cumulative data-path spend (egress + capacity + operations) through the
  // last Integrate, unflushed integrals valued at the active rates; folded
  // in fixed shard order on the calling thread.
  double RealizedDataCostUsd() const;
  void RecordLatency(Shard& sh, DataSource source, uint64_t size);

  // Per-approach GET paths.
  void GetRemote(Shard& sh, uint64_t size);
  void GetReplicated(Shard& sh, uint64_t size);
  void GetEcpc(Shard& sh, ObjectId id, uint64_t size, uint64_t h);
  void GetMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, uint64_t h);

  const EngineConfig& cfg_;
  RequestSource& source_;
  const SourceInfo& info_;
  PriceBook prices_;
  GroundTruthLatency truth_;
  FittedLatencyGenerator fitted_;
  int num_shards_;
  ShardRouter router_;
  ThreadPool pool_;
  RunResult result_;

  std::vector<Shard> shards_;
  // Declared after pool_: the controller's bank destructors join any
  // in-flight async fan-out, which needs the pool alive.
  std::unique_ptr<MacaronController> controller_;

  // ReplaySegment scratch for the count-then-scatter shard partition
  // (per-row shard ids, then per-shard write cursors), reused across
  // segments.
  std::vector<uint32_t> shard_of_scratch_;
  std::vector<size_t> shard_cursor_scratch_;

  // Elastic-cluster-cache parameters (DRAM for ECPC, NVMe for flash-ECPC);
  // Macaron's own cluster uses the DRAM defaults.
  uint64_t node_usable_ = 0;
  double node_price_per_hour_ = 0.0;
  DataSource cluster_hit_source_ = DataSource::kCacheCluster;
  // Admission-bypass extension state. Written only at window boundaries
  // (shards idle), read by shards during replay.
  bool admission_bypass_ = false;
  int min_capacity_streak_ = 0;

  // Repricing events, aligned to window boundaries and sorted by time;
  // next_shock_ indexes the first not-yet-applied one. prices_ is only
  // mutated at boundaries, when no shard worker is running.
  std::vector<PriceShock> shocks_;
  size_t next_shock_ = 0;
};

void Runner::Setup() {
  result_.trace_name = info_.name;
  result_.approach_name = ApproachName(cfg_.approach);
  shocks_ = AlignShocksToWindows(cfg_.price_shocks, cfg_.window);
  std::stable_sort(shocks_.begin(), shocks_.end(),
                   [](const PriceShock& a, const PriceShock& b) { return a.at < b.at; });

  const TraceStats& stats = info_.stats;
  const uint64_t dataset =
      cfg_.dataset_bytes_hint != 0 ? cfg_.dataset_bytes_hint : stats.unique_bytes;
  result_.dataset_bytes = dataset;

  // Spatial sampling needs a minimum object population for stable curves;
  // small (scaled-down) traces sample at a higher ratio.
  double sampling_ratio = cfg_.sampling_ratio;
  if (stats.unique_objects > 0) {
    constexpr double kTargetSampledObjects = 2000.0;
    const double needed = kTargetSampledObjects / static_cast<double>(stats.unique_objects);
    sampling_ratio = std::clamp(needed, cfg_.sampling_ratio, 1.0);
  }

  // Default cluster economics (Macaron's own DRAM tier); overridden below
  // for the elastic-cluster-cache approaches.
  node_usable_ = prices_.cache_node_usable_bytes;
  node_price_per_hour_ = prices_.cache_node_per_hour;
  if (IsElasticClusterCache()) {
    node_usable_ = cfg_.approach == Approach::kFlashEcpc ? prices_.flash_node_usable_bytes
                                                         : prices_.cache_node_usable_bytes;
    node_price_per_hour_ = cfg_.approach == Approach::kFlashEcpc ? prices_.flash_node_per_hour
                                                                 : prices_.cache_node_per_hour;
    cluster_hit_source_ = cfg_.approach == Approach::kFlashEcpc ? DataSource::kFlash
                                                                : DataSource::kCacheCluster;
  }

  shards_.resize(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    // Shard 0 inherits the historical engine seed so num_shards = 1
    // reproduces the unsharded engine's latency draws exactly; other
    // shards fork deterministic independent streams.
    sh.rng = Rng((cfg_.seed ^ 0x5eed) ^
                 (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(s)));
    if (IsMacaronFamily()) {
      sh.osc = std::make_unique<ObjectStorageCache>(cfg_.packing);
      if (UsesTtlEviction()) {
        const SimDuration initial_ttl = cfg_.approach == Approach::kStaticTtl
                                            ? cfg_.static_ttl
                                            : info_.end_time + 2 * kDay;
        MACARON_CHECK(initial_ttl > 0);
        sh.ttl_shadow = std::make_unique<TtlCache>(initial_ttl);
      }
      if (cfg_.approach == Approach::kMacaron) {
        sh.cluster = std::make_unique<CacheCluster>(prices_.cache_node_usable_bytes);
      }
    } else if (IsElasticClusterCache()) {
      sh.cluster = std::make_unique<CacheCluster>(node_usable_);
    }
  }
  // Coalescer invalidation wiring: a TTL expiry or capacity eviction of an
  // object whose fill is still outstanding drops the in-flight entry, so
  // later requests re-fetch instead of coalescing onto a discarded fill.
  // Done after the resize above so the captured shard pointers are stable.
  for (Shard& sh : shards_) {
    Shard* p = &sh;
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->set_evict_callback([p](ObjectId id, uint64_t size) {
        (void)size;
        p->osc->Delete(id);
        p->inflight.Invalidate(id);
      });
    }
    if (sh.osc != nullptr) {
      sh.osc->set_evict_observer([p](ObjectId id) { p->inflight.Invalidate(id); });
    }
  }

  if (UsesController()) {
    ControllerConfig cc;
    cc.window = cfg_.window;
    cc.observation = cfg_.observation;
    cc.analyzer.sampling_ratio = sampling_ratio;
    cc.analyzer.num_minicaches = cfg_.num_minicaches;
    cc.analyzer.min_capacity_bytes = cfg_.min_minicache_bytes;
    // Headroom above the dataset so the largest mini-cache truly never
    // evicts; otherwise sampling noise can hide the cost of slightly
    // undersized caches.
    cc.analyzer.max_capacity_bytes = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(dataset) * 1.15),
        cfg_.min_minicache_bytes * 2);
    cc.analyzer.decay_per_day = cfg_.decay_per_day;
    cc.analyzer.policy = cfg_.packing.policy;
    cc.analyzer.seed = cfg_.seed ^ 0xc0;
    cc.analyzer.threads = cfg_.analyzer_threads;
    cc.packing_enabled = cfg_.packing.packing_enabled;
    cc.packing_block_bytes = cfg_.packing.block_bytes;
    cc.packing_max_objects = cfg_.packing.max_objects_per_block;
    cc.max_cluster_nodes = cfg_.max_cluster_nodes;
    cc.cluster_shards = static_cast<size_t>(num_shards_);
    switch (cfg_.approach) {
      case Approach::kMacaron: {
        cc.enable_cluster = true;
        cc.analyzer.enable_alc = true;
        // Target: replica-equivalent latency (local object storage) for the
        // trace's typical object size, with a small headroom margin.
        cc.cluster_latency_target_ms =
            fitted_.FittedMeanMs(DataSource::kOsc, stats.median_object_bytes) * 0.95;
        break;
      }
      case Approach::kMacaronTtl:
        cc.mode = OptimizationMode::kTtl;
        cc.analyzer.enable_ttl = true;
        cc.analyzer.max_ttl = std::max<SimDuration>(info_.duration(), kDay);
        break;
      case Approach::kEcpc:
      case Approach::kFlashEcpc:
        cc.capacity_pricing = cfg_.approach == Approach::kFlashEcpc ? CapacityPricing::kFlash
                                                                    : CapacityPricing::kDram;
        cc.packing_enabled = false;
        // Caching everything in DRAM/flash during observation is not
        // viable; these start optimizing after the first window instead.
        cc.observation = cfg_.window;
        break;
      default:
        break;
    }
    controller_ = std::make_unique<MacaronController>(cc, prices_, &fitted_);
    // The analyzer's mini-sim banks fan out on the shared engine pool
    // (sized above to cover analyzer_threads); async overlaps their batch
    // replays with serving. Either way the outputs are bit-identical.
    controller_->SetExecution(&pool_, cfg_.async_analyzer);
  }
  if (IsElasticClusterCache()) {
    for (Shard& sh : shards_) {
      sh.cluster->Resize(1);
    }
  }

  // Observability wiring (no-op when both sinks are null — the default).
  // The controller runs on the calling thread and registers into the
  // engine's sink directly; shard components register into per-shard
  // registries that fold into the sink — in shard order — after the run,
  // so worker threads never share a counter.
  if (controller_ != nullptr) {
    controller_->SetObservability(cfg_.decision_trace, cfg_.metrics);
  }
  if (cfg_.metrics != nullptr) {
    for (Shard& sh : shards_) {
      sh.metrics = std::make_unique<obs::MetricsRegistry>();
      if (sh.osc != nullptr) {
        sh.osc->RegisterMetrics(sh.metrics.get());
      }
      if (sh.cluster != nullptr) {
        sh.cluster->RegisterMetrics(sh.metrics.get());
      }
      sh.inflight.RegisterMetrics(sh.metrics.get());
    }
  }
}

void Runner::Integrate(Shard& sh, SimTime t) {
  if (t <= sh.last_integrate) {
    return;
  }
  const double dt = static_cast<double>(t - sh.last_integrate);
  if (sh.osc != nullptr) {
    sh.osc_byte_ms += static_cast<double>(sh.osc->stored_bytes()) * dt;
  }
  if (cfg_.approach == Approach::kReplicated) {
    const double replica_bytes =
        static_cast<double>(sh.known_dataset_bytes) / (1.0 - cfg_.dark_data_fraction);
    sh.replica_byte_ms += replica_bytes * dt;
    sh.churn_byte_ms += replica_bytes * dt;
  }
  if (sh.cluster != nullptr) {
    sh.node_ms += static_cast<double>(sh.cluster->num_nodes()) * dt;
  }
  sh.last_integrate = t;
}

void Runner::RecordLatency(Shard& sh, DataSource source, uint64_t size) {
  if (!cfg_.measure_latency) {
    return;
  }
  sh.latency_ms.Add(fitted_.SampleMs(source, size, sh.rng));
}

void Runner::GetRemote(Shard& sh, uint64_t size) {
  ++sh.remote_fetches;
  sh.egress_bytes += size;
  sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(size));
  sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
  RecordLatency(sh, DataSource::kRemoteLake, size);
}

void Runner::GetReplicated(Shard& sh, uint64_t size) {
  // All reads are served by the local replica.
  ++sh.osc_hits;
  sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
  RecordLatency(sh, DataSource::kOsc, size);
}

void Runner::GetEcpc(Shard& sh, ObjectId id, uint64_t size, uint64_t h) {
  if (sh.cluster->GetHashed(id, h)) {
    ++sh.cluster_hits;
    RecordLatency(sh, cluster_hit_source_, size);
    return;
  }
  ++sh.remote_fetches;
  sh.egress_bytes += size;
  sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(size));
  sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
  RecordLatency(sh, DataSource::kRemoteLake, size);
  sh.cluster->PutHashed(id, h, size);
}

void Runner::GetMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, uint64_t h) {
  // A fetch still in flight means the object is not yet actually available,
  // even though it was admitted to cache metadata at request time: the
  // duplicate access is delayed until the fetch completes (§5.2).
  if (auto completion = sh.inflight.Pending(id, time)) {
    ++sh.delayed_hits;
    if (cfg_.measure_latency) {
      sh.latency_ms.Add(static_cast<double>(*completion - time));
    }
    return;
  }
  if (sh.cluster != nullptr && sh.cluster->GetHashed(id, h)) {
    ++sh.cluster_hits;
    RecordLatency(sh, DataSource::kCacheCluster, size);
    // Inclusive caching: refresh OSC recency so hot data stays resident.
    if (sh.osc->Contains(id)) {
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->GetPrehashed(id, h, time);
      }
    }
    return;
  }
  if (sh.osc->LookupPrehashed(id, h)) {
    ++sh.osc_hits;
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->GetPrehashed(id, h, time);
    }
    RecordLatency(sh, DataSource::kOsc, size);
    if (sh.cluster != nullptr) {
      sh.cluster->PutHashed(id, h, size);  // promote
    }
    return;
  }
  ++sh.remote_fetches;
  sh.egress_bytes += size;
  sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(size));
  sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
  const double lat = fitted_.SampleMs(DataSource::kRemoteLake, size, sh.rng);
  if (cfg_.measure_latency) {
    sh.latency_ms.Add(lat);
  }
  sh.inflight.Insert(id, time + static_cast<SimTime>(lat) + 1);
  if (!admission_bypass_) {
    sh.osc->AdmitPrehashed(id, h, size);
    if (sh.ttl_shadow != nullptr) {
      sh.ttl_shadow->PutPrehashed(id, h, size, time);
    }
  }
  if (sh.cluster != nullptr) {
    sh.cluster->PutHashed(id, h, size);
  }
}

void Runner::ProcessRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op,
                            uint64_t h) {
  Integrate(sh, time);
  if (cfg_.approach == Approach::kReplicated && (op == Op::kGet || op == Op::kPut)) {
    if (sh.seen.insert(id).second) {
      sh.known_dataset_bytes += size;
      // Replication must transfer every byte of the (growing) dataset once,
      // dark data included: first-touch bytes proxy the dataset growth rate
      // the paper bills sync egress on (§7.1).
      const double sync_bytes =
          static_cast<double>(size) / (1.0 - cfg_.dark_data_fraction);
      sh.costs.Add(CostCategory::kEgress,
                   prices_.EgressCost(static_cast<uint64_t>(sync_bytes)));
      sh.egress_bytes += static_cast<uint64_t>(sync_bytes);
    }
  }
  switch (op) {
    case Op::kGet:
      ++sh.gets;
      switch (cfg_.approach) {
        case Approach::kRemote:
          GetRemote(sh, size);
          break;
        case Approach::kReplicated:
          GetReplicated(sh, size);
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          GetEcpc(sh, id, size, h);
          break;
        default:
          GetMacaron(sh, time, id, size, h);
          break;
      }
      break;
    case Op::kPut:
      // Write-through: the PUT to the remote lake (free ingress, identical
      // across approaches) is excluded; only cache-side effects are metered.
      switch (cfg_.approach) {
        case Approach::kRemote:
        case Approach::kReplicated:
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          sh.cluster->PutHashed(id, h, size);
          break;
        default:
          if (!admission_bypass_) {
            sh.osc->AdmitPrehashed(id, h, size);
          }
          if (sh.ttl_shadow != nullptr) {
            sh.ttl_shadow->PutPrehashed(id, h, size, time);
          }
          if (sh.cluster != nullptr) {
            sh.cluster->PutHashed(id, h, size);
          }
          break;
      }
      break;
    case Op::kDelete:
      switch (cfg_.approach) {
        case Approach::kRemote:
          break;
        case Approach::kReplicated:
          if (sh.seen.erase(id) > 0) {
            sh.known_dataset_bytes -= std::min(sh.known_dataset_bytes, size);
          }
          break;
        case Approach::kEcpc:
        case Approach::kFlashEcpc:
          sh.cluster->DeleteHashed(id, h);
          break;
        default:
          sh.osc->DeletePrehashed(id, h);
          if (sh.ttl_shadow != nullptr) {
            sh.ttl_shadow->ErasePrehashed(id, h);
          }
          if (sh.cluster != nullptr) {
            sh.cluster->DeleteHashed(id, h);
          }
          sh.inflight.Erase(id);
          break;
      }
      break;
  }
}

void Runner::ReplayShardBatch(Shard& sh) {
  const ReplayBatch& b = sh.batch;
  // Prefetch distance for the OSC order index / TTL shadow of upcoming
  // requests; see ReplayKernel (eviction_policy.cc) for the rationale. The
  // cluster is skipped: reaching its per-node index would duplicate ring
  // routing here.
  constexpr size_t kPrefetchAhead = 8;
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
    ProcessRequest(sh, b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i]);
  }
}

void Runner::ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end) {
  // Partition this segment of the decoded chunk into per-shard SoA columns.
  // The hash column was filled once at decode (the one Mix64 of the request
  // path); shard routing and every cache level reuse it. One shard takes
  // the whole segment as a single five-column copy; multiple shards use a
  // count-then-scatter pass (route every row, grow each shard's columns
  // once, then write rows through cursors) instead of per-row push_backs.
  if (num_shards_ == 1) {
    shards_[0].batch.AppendRange(chunk, begin, end);
  } else {
    const size_t n = end - begin;
    if (shard_of_scratch_.size() < n) {
      shard_of_scratch_.resize(n);
    }
    shard_cursor_scratch_.assign(static_cast<size_t>(num_shards_), 0);
    for (size_t k = 0; k < n; ++k) {
      const uint32_t s = static_cast<uint32_t>(router_.ShardOf(chunk.hashes[begin + k]));
      shard_of_scratch_[k] = s;
      ++shard_cursor_scratch_[s];
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      shard_cursor_scratch_[s] = shards_[s].batch.GrowBy(shard_cursor_scratch_[s]);
    }
    for (size_t k = 0; k < n; ++k) {
      ReplayBatch& b = shards_[shard_of_scratch_[k]].batch;
      const size_t w = shard_cursor_scratch_[shard_of_scratch_[k]]++;
      const size_t src = begin + k;
      b.ids[w] = chunk.ids[src];
      b.hashes[w] = chunk.hashes[src];
      b.sizes[w] = chunk.sizes[src];
      b.ops[w] = chunk.ops[src];
      b.times[w] = chunk.times[src];
    }
  }
  // Shards replay their columns on the pool while the controller observes
  // the segment's columns on this thread. The analyzer shares no state with
  // the serving shards and its report is only read at the next boundary —
  // after both sides finish — so the overlap cannot affect any output; with
  // async_analyzer its batch fan-outs additionally outlive this segment,
  // overlapping the next chunk's decode and serving until a window boundary
  // joins them. With a workerless pool, Submit runs the shard inline,
  // preserving the same results on a single thread.
  std::vector<std::future<void>> pending;
  for (Shard& sh : shards_) {
    if (sh.batch.empty()) {
      continue;
    }
    Shard* p = &sh;
    pending.push_back(pool_.Submit([this, p] { ReplayShardBatch(*p); }));
  }
  if (controller_ != nullptr) {
    controller_->ObserveColumns(chunk, begin, end);
  }
  for (std::future<void>& f : pending) {
    f.get();
  }
  for (Shard& sh : shards_) {
    sh.batch.Clear();
  }
}

void Runner::ChargeOscOps(Shard& sh) {
  if (sh.osc == nullptr) {
    return;
  }
  const ObjectStorageCache::OpCounts ops = sh.osc->TakeOps();
  sh.costs.Add(CostCategory::kOperation,
               prices_.PutCost(ops.puts) + prices_.GetCost(ops.gets + ops.gc_block_reads));
}

void Runner::ApplyDecision(SimTime t, const ReconfigDecision& d) {
  switch (cfg_.approach) {
    case Approach::kMacaron:
    case Approach::kMacaronNoCluster: {
      pool_.ParallelFor(shards_.size(), [&](size_t s) {
        Shard& sh = shards_[s];
        sh.osc->EvictToCapacity(ShareOf(d.osc_capacity, num_shards_, static_cast<int>(s)));
        if (sh.cluster != nullptr) {
          const std::vector<uint32_t> added = sh.cluster->Resize(
              ShareOf(d.cluster_nodes, num_shards_, static_cast<int>(s)));
          if (cfg_.enable_priming) {
            const uint64_t primed = sh.cluster->Prime(*sh.osc, added);
            sh.costs.Add(CostCategory::kOperation, prices_.GetCost(primed));
          }
        }
      });
      if (result_.first_optimized_capacity == 0) {
        result_.first_optimized_capacity = d.osc_capacity;
      }
      result_.osc_capacity_timeline.emplace_back(t, d.osc_capacity);
      if (shards_[0].cluster != nullptr) {
        size_t total_nodes = 0;
        for (const Shard& sh : shards_) {
          total_nodes += sh.cluster->num_nodes();
        }
        result_.cluster_nodes_timeline.emplace_back(t, total_nodes);
      }
      // Admission-bypass extension: engage when even the best cache
      // configuration is predicted to cost at least as much per window
      // as serving everything remotely (no capacity, no packing PUTs).
      if (cfg_.enable_admission_bypass && !d.cost_curve.empty()) {
        const double best_with_cache = d.cost_curve.y(d.cost_curve.ArgMin());
        const double no_cache_egress = prices_.EgressCost(
            static_cast<uint64_t>(d.expected_window_get_bytes));
        if (best_with_cache >= no_cache_egress * 0.98) {
          ++min_capacity_streak_;
        } else {
          min_capacity_streak_ = 0;
        }
        admission_bypass_ = min_capacity_streak_ >= cfg_.admission_bypass_windows;
      }
      break;
    }
    case Approach::kMacaronTtl: {
      pool_.ParallelFor(shards_.size(), [&](size_t s) {
        Shard& sh = shards_[s];
        MACARON_CHECK(sh.ttl_shadow != nullptr);
        sh.ttl_shadow->SetTtl(d.ttl, t);
        sh.osc->RunGc();
      });
      if (result_.first_optimized_ttl == 0) {
        result_.first_optimized_ttl = d.ttl;
      }
      result_.ttl_timeline.emplace_back(t, d.ttl);
      break;
    }
    case Approach::kEcpc:
    case Approach::kFlashEcpc: {
      const size_t want = static_cast<size_t>(std::min<uint64_t>(
          (d.osc_capacity + node_usable_ - 1) / node_usable_, cfg_.max_cluster_nodes));
      const size_t total = RoundNodesToShards(want, static_cast<size_t>(num_shards_),
                                              cfg_.max_cluster_nodes);
      pool_.ParallelFor(shards_.size(), [&](size_t s) {
        shards_[s].cluster->Resize(
            ShareOf(total, num_shards_, static_cast<int>(s)));
      });
      size_t total_nodes = 0;
      for (const Shard& sh : shards_) {
        total_nodes += sh.cluster->num_nodes();
      }
      result_.cluster_nodes_timeline.emplace_back(t, total_nodes);
      break;
    }
    default:
      break;
  }
}

void Runner::FlushDataIntegrals(Shard& sh) {
  // Mirrors Finalize's per-shard conversion exactly (same formulas, same
  // addition order) so that the no-shock single-flush path is bit-identical
  // to the historical Finalize-only accounting.
  if (sh.osc != nullptr) {
    const double gb_months = sh.osc_byte_ms / 1.0e9 / static_cast<double>(kBillingMonth);
    sh.costs.Add(CostCategory::kCapacity, gb_months * prices_.object_storage_per_gb_month);
    sh.osc_byte_ms_flushed += sh.osc_byte_ms;
    sh.osc_byte_ms = 0.0;
  }
  if (cfg_.approach == Approach::kReplicated) {
    const double gb_months = sh.replica_byte_ms / 1.0e9 / static_cast<double>(kBillingMonth);
    sh.costs.Add(CostCategory::kCapacity, gb_months * prices_.object_storage_per_gb_month);
    sh.replica_byte_ms_flushed += sh.replica_byte_ms;
    sh.replica_byte_ms = 0.0;
    // Retention churn: the dataset turns over every `retention`; replaced
    // data must be synchronized to the replica.
    const double churn_bytes = sh.churn_byte_ms / static_cast<double>(cfg_.retention);
    sh.costs.Add(CostCategory::kEgress,
                 prices_.EgressCost(static_cast<uint64_t>(churn_bytes)));
    sh.egress_bytes += static_cast<uint64_t>(churn_bytes);
    sh.churn_byte_ms = 0.0;
    // Replica GET op costs are charged inline.
  }
  // node_ms is deliberately not flushed: node rates are infrastructure
  // prices, which shocks never touch.
}

void Runner::ApplyPriceShocks(SimTime t) {
  if (next_shock_ >= shocks_.size() || shocks_[next_shock_].at > t) {
    return;
  }
  // Bill everything accrued so far — integrals and pending OSC ops — at the
  // outgoing rates before swapping the book.
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    FlushDataIntegrals(shards_[s]);
    ChargeOscOps(shards_[s]);
  });
  while (next_shock_ < shocks_.size() && shocks_[next_shock_].at <= t) {
    prices_ = ApplyPriceShock(prices_, shocks_[next_shock_]);
    ++next_shock_;
  }
  if (controller_ != nullptr) {
    controller_->UpdatePrices(prices_);
  }
}

double Runner::RealizedDataCostUsd() const {
  double total = 0.0;
  for (const Shard& sh : shards_) {
    total += sh.costs.Get(CostCategory::kEgress) + sh.costs.Get(CostCategory::kCapacity) +
             sh.costs.Get(CostCategory::kOperation);
    if (sh.osc != nullptr) {
      total += sh.osc_byte_ms / 1.0e9 / static_cast<double>(kBillingMonth) *
               prices_.object_storage_per_gb_month;
    }
    if (cfg_.approach == Approach::kReplicated) {
      total += sh.replica_byte_ms / 1.0e9 / static_cast<double>(kBillingMonth) *
                   prices_.object_storage_per_gb_month +
               prices_.EgressCost(static_cast<uint64_t>(
                   sh.churn_byte_ms / static_cast<double>(cfg_.retention)));
    }
  }
  return total;
}

void Runner::WindowBoundary(SimTime t) {
  // Per-shard maintenance (parallel; every touched field is shard-local).
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    Shard& sh = shards_[s];
    Integrate(sh, t);
    if (sh.osc != nullptr) {
      sh.osc->FlushOpenBlock();  // timer-driven flush of a partial block
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->Expire(t);
      }
      // Collect blocks that deletions/evictions pushed past the GC threshold
      // since the last boundary, so garbage is not billed indefinitely.
      sh.osc->RunGc();
    }
    if (cfg_.approach == Approach::kStaticCapacity && t >= cfg_.observation) {
      MACARON_CHECK(cfg_.static_capacity_bytes > 0);
      sh.osc->EvictToCapacity(
          ShareOf(cfg_.static_capacity_bytes, num_shards_, static_cast<int>(s)));
    }
  });

  // Repricing events aligned to this boundary take effect before the
  // controller optimizes, so the decision already reflects the new
  // economics (integrals were just completed through t at the old rates).
  ApplyPriceShocks(t);

  if (controller_ != nullptr) {
    uint64_t garbage = 0;
    for (const Shard& sh : shards_) {
      garbage += sh.osc != nullptr ? sh.osc->garbage_bytes() : 0;
    }
    const ReconfigDecision d = controller_->Reconfigure(t, garbage);
    if (d.optimized) {
      ++result_.reconfigs;
      result_.total_reconfig_seconds += d.reconfig_seconds;
      result_.total_analysis_seconds += d.analysis_seconds;
      result_.costs.Add(CostCategory::kServerless, prices_.LambdaCost(d.lambda_gb_seconds));
      ApplyDecision(t, d);
    }
  }
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    Shard& sh = shards_[s];
    ChargeOscOps(sh);
    sh.inflight.Sweep(t);
  });
  // Amend the record the controller just appended with the engine's actual
  // cumulative data-path spend through this boundary (after ChargeOscOps so
  // the window's packing operations are included). Runs on the calling
  // thread, shards idle, fixed fold order — thread-count independent.
  if (controller_ != nullptr && cfg_.decision_trace != nullptr) {
    if (obs::DecisionRecord* rec = cfg_.decision_trace->mutable_last()) {
      rec->realized_cost_usd = RealizedDataCostUsd();
    }
  }
}

void Runner::Finalize() {
  const SimTime end = info_.end_time;
  const SimDuration span = std::max<SimDuration>(end, 1);

  // Convert per-shard integrals into per-shard costs (still shard-local, so
  // a single shard reproduces the unsharded addition sequence exactly).
  // Without price shocks this is the only flush, and the *_flushed lifetime
  // totals equal the raw integrals bit for bit.
  double osc_byte_ms_total = 0.0;
  double replica_byte_ms_total = 0.0;
  for (Shard& sh : shards_) {
    FlushDataIntegrals(sh);
    if (sh.osc != nullptr) {
      osc_byte_ms_total += sh.osc_byte_ms_flushed;
    }
    if (cfg_.approach == Approach::kReplicated) {
      replica_byte_ms_total += sh.replica_byte_ms_flushed;
    }
    if (sh.cluster != nullptr) {
      const double node_hours = sh.node_ms / static_cast<double>(kHour);
      sh.costs.Add(CostCategory::kClusterNodes, node_hours * node_price_per_hour_);
    }
  }

  // Deterministic merge, fixed shard order 0..S-1. Counters and per-category
  // costs fold by addition; latency samples concatenate in shard order
  // (PercentileTracker preserves insertion order, so the merged tracker
  // serializes identically at any thread count).
  for (Shard& sh : shards_) {
    result_.costs.Merge(sh.costs);
    result_.gets += sh.gets;
    result_.cluster_hits += sh.cluster_hits;
    result_.osc_hits += sh.osc_hits;
    result_.remote_fetches += sh.remote_fetches;
    result_.delayed_hits += sh.delayed_hits;
    result_.egress_bytes += sh.egress_bytes;
    for (double v : sh.latency_ms.samples()) {
      result_.latency_ms.Add(v);
    }
  }
  if (shards_[0].osc != nullptr) {
    result_.mean_stored_bytes = osc_byte_ms_total / static_cast<double>(span);
  }
  if (cfg_.approach == Approach::kReplicated) {
    result_.mean_stored_bytes = replica_byte_ms_total / static_cast<double>(span);
  }
  if (IsMacaronFamily() || IsElasticClusterCache()) {
    // One r5.xlarge hosting the controller and OSC manager.
    result_.costs.Add(CostCategory::kInfra, prices_.VmCost(span));
  }
  if (cfg_.metrics != nullptr) {
    for (const Shard& sh : shards_) {
      cfg_.metrics->MergeFrom(*sh.metrics);
    }
  }
}

RunResult Runner::Run() {
  Setup();
  // Shocks at or before t=0 are in force from the very first request (no
  // boundary precedes it).
  ApplyPriceShocks(0);
  if (info_.empty()) {
    return std::move(result_);
  }
  ChunkCursor cursor(source_, cfg_.stream_decode_ahead);
  SimTime next_boundary = cfg_.window;
  while (const ReplayBatch* chunk = cursor.Next()) {
    const size_t n = chunk->size();
    size_t i = 0;
    while (i < n) {
      // Boundaries due before the next request fire first (including the
      // catch-up over empty windows the sequential engine performed
      // per-request).
      while (chunk->times[i] >= next_boundary) {
        WindowBoundary(next_boundary);
        next_boundary += cfg_.window;
      }
      size_t j = i;
      while (j < n && chunk->times[j] < next_boundary) {
        ++j;
      }
      ReplaySegment(*chunk, i, j);
      i = j;
    }
  }
  WindowBoundary(info_.end_time + 1);
  Finalize();
  return std::move(result_);
}

}  // namespace

RunResult ReplayEngine::Run(const Trace& trace) const {
  TraceSource source(trace);
  return Run(source);
}

RunResult ReplayEngine::Run(RequestSource& source) const {
  Runner runner(config_, source);
  return runner.Run();
}

}  // namespace macaron
