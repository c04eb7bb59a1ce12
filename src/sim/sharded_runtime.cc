#include "src/sim/sharded_runtime.h"

#include <algorithm>
#include <cmath>
#include <future>

#include "src/common/check.h"
#include "src/obs/decision_trace.h"
#include "src/trace/trace.h"

namespace macaron {

ShardedRuntime::ShardedRuntime(const EngineConfig& cfg, RequestSource& source)
    : cfg_(cfg),
      info_(source.Info()),
      prices_(ScaledInfraPrices(cfg.prices, cfg.infra_scale)),
      truth_(cfg.scenario),
      fitted_(truth_, /*samples_per_bucket=*/400, cfg.seed ^ 0xfeed),
      num_shards_(std::max(cfg.num_shards, 1)),
      // One shared pool serves both serving shards and the analyzer's
      // mini-sim fan-outs: its size is the larger of the two demands, so
      // analyzer_threads no longer spawns a second pool that would
      // oversubscribe the machine (threads are a shared budget; any size
      // produces bit-identical outputs).
      pool_(std::max(std::min(std::max(cfg.shard_threads, 1), num_shards_),
                     std::min(std::max(cfg.analyzer_threads, 1), 1024))),
      source_(source),
      router_(num_shards_) {
  // Run advances its window boundary by cfg.window per step; a window of
  // zero would never pass the first request.
  MACARON_CHECK(cfg.window > 0);
  result_.trace_name = info_.name;
  result_.approach_name = ApproachName(cfg_.approach);
}

bool ShardedRuntime::IsMacaronFamily() const {
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

void ShardedRuntime::Setup() {
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

  node_usable_ = prices_.cache_node_usable_bytes;
  node_price_per_hour_ = prices_.cache_node_per_hour;
  if (cfg_.approach == Approach::kFlashEcpc) {
    node_usable_ = prices_.flash_node_usable_bytes;
    node_price_per_hour_ = prices_.flash_node_per_hour;
  }

  shards_.resize(static_cast<size_t>(num_shards_));
  // Both engines add exactly one latency sample per GET (a cluster, OSC or
  // delayed hit, or a remote fetch), so each shard's buffer is sized once
  // for its even share of the trace's GETs instead of growing by doubling.
  // Likewise each shard's OSC reserves its order's slab for the trace's
  // unique objects it can expect to own, which it may hold all at once: the
  // controller caches everything during observation. Objects route by hash,
  // so that is the shard's hash share of them (not an even share: the
  // largest of four shards owns 31%), plus four standard deviations of that
  // binomial count so a shard near its expectation does not regrow.
  const uint64_t latency_share =
      cfg_.measure_latency ? (stats.num_gets + static_cast<uint64_t>(num_shards_) - 1) /
                                 static_cast<uint64_t>(num_shards_)
                           : 0;
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    sh.index = s;
    sh.latency_ms.Reserve(static_cast<size_t>(latency_share));
    // Shard 0 inherits the historical engine seed so num_shards = 1
    // reproduces the unsharded engine's latency draws exactly; other
    // shards fork deterministic independent streams.
    sh.rng = Rng((cfg_.seed ^ 0x5eed) ^
                 (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(s)));
    if (IsMacaronFamily()) {
      const double objects = static_cast<double>(stats.unique_objects) * router_.HashShare(s);
      sh.osc = std::make_unique<ObjectStorageCache>(
          cfg_.packing, static_cast<size_t>(objects + 4.0 * std::sqrt(objects)));
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
    } else if (IsElasticClusterCache(cfg_.approach)) {
      sh.cluster = std::make_unique<CacheCluster>(node_usable_);
    }
  }
  // Coalescer invalidation wiring (see inflight.h): a TTL expiry or capacity
  // eviction of an object whose fill is still outstanding drops the
  // in-flight entry, so later requests re-fetch instead of coalescing onto a
  // discarded fill, and a deferred admission cannot resurrect the dead
  // object. Done after the resize above so the captured shard pointers are
  // stable.
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

  if (UsesController(cfg_.approach)) {
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
  if (IsElasticClusterCache(cfg_.approach)) {
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

void ShardedRuntime::ReplaySegment(const ReplayBatch& chunk, size_t begin, size_t end) {
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
    pending.push_back(pool_.Submit([this, p] { ServeShard(*p); }));
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

void ShardedRuntime::ChargeOscOps(Shard& sh) {
  if (sh.osc == nullptr) {
    return;
  }
  const ObjectStorageCache::OpCounts ops = sh.osc->TakeOps();
  sh.costs.Add(CostCategory::kOperation,
               prices_.PutCost(ops.puts) + prices_.GetCost(ops.gets + ops.gc_block_reads));
}

void ShardedRuntime::FlushDataIntegrals(Shard& sh) {
  // Mirrors Finalize's per-shard conversion exactly (same formulas, same
  // addition order) so that the no-shock single-flush path is bit-identical
  // to the historical Finalize-only accounting. The approaches that store
  // nothing add zero dollars.
  sh.costs.Add(CostCategory::kCapacity, StorageCostUsd(sh.stored_byte_ms));
  if (cfg_.approach == Approach::kReplicated) {
    // Retention churn: the dataset turns over every `retention`; replaced
    // data must be synchronized to the replica. Replica GET op costs are
    // charged inline.
    const uint64_t churn_bytes = ChurnBytes(sh);
    sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(churn_bytes));
    sh.egress_bytes += churn_bytes;
  }
  sh.stored_byte_ms_flushed += sh.stored_byte_ms;
  sh.stored_byte_ms = 0.0;
  // node_ms is deliberately not flushed: node rates are infrastructure
  // prices, which shocks never touch.
}

void ShardedRuntime::ApplyPriceShocks(SimTime t) {
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

double ShardedRuntime::RealizedDataCostUsd() const {
  double total = 0.0;
  for (const Shard& sh : shards_) {
    total += sh.costs.Get(CostCategory::kEgress) + sh.costs.Get(CostCategory::kCapacity) +
             sh.costs.Get(CostCategory::kOperation);
    total += StorageCostUsd(sh.stored_byte_ms) + prices_.EgressCost(ChurnBytes(sh));
  }
  return total;
}

void ShardedRuntime::MaintainShard(Shard& sh, SimTime t) {
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
}

void ShardedRuntime::ApplyShardDecision(Shard& sh, SimTime now, const ReconfigDecision& d) {
  Integrate(sh, now);
  if (cfg_.approach == Approach::kMacaronTtl) {
    sh.ttl_shadow->SetTtl(d.ttl, now);
    sh.osc->RunGc();
    return;
  }
  sh.osc->EvictToCapacity(ShareOf(d.osc_capacity, num_shards_, sh.index));
  if (sh.cluster != nullptr) {
    const std::vector<uint32_t> added =
        sh.cluster->Resize(ShareOf(d.cluster_nodes, num_shards_, sh.index));
    if (cfg_.enable_priming) {
      const uint64_t primed = sh.cluster->Prime(*sh.osc, added);
      sh.costs.Add(CostCategory::kOperation, prices_.GetCost(primed));
    }
  }
}

void ShardedRuntime::WindowBoundary(SimTime t) {
  // Per-shard maintenance (parallel; every touched field is shard-local).
  pool_.ParallelFor(shards_.size(), [&](size_t s) { MaintainShard(shards_[s], t); });

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

void ShardedRuntime::RecordDecision(SimTime at, const ReconfigDecision& d) {
  if (cfg_.approach == Approach::kMacaronTtl) {
    result_.ttl_timeline.emplace_back(at, d.ttl);
    return;
  }
  result_.osc_capacity_timeline.emplace_back(at, d.osc_capacity);
  if (shards_[0].cluster != nullptr) {
    result_.cluster_nodes_timeline.emplace_back(at, d.cluster_nodes);
  }
}

void ShardedRuntime::Finalize() {
  const SimTime end = info_.end_time;
  const SimDuration span = std::max<SimDuration>(end, 1);

  // Decisions were recorded when taken (replay) or scheduled (event); apply
  // order is time order with recording order breaking ties (the single
  // global event queue's tie rule), and the first optimized values are the
  // first nonzero ones in that order.
  const auto by_time = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::stable_sort(result_.osc_capacity_timeline.begin(), result_.osc_capacity_timeline.end(),
                   by_time);
  std::stable_sort(result_.cluster_nodes_timeline.begin(),
                   result_.cluster_nodes_timeline.end(), by_time);
  std::stable_sort(result_.ttl_timeline.begin(), result_.ttl_timeline.end(), by_time);
  for (const auto& [at, capacity] : result_.osc_capacity_timeline) {
    if (result_.first_optimized_capacity == 0) {
      result_.first_optimized_capacity = capacity;
    }
  }
  for (const auto& [at, ttl] : result_.ttl_timeline) {
    if (result_.first_optimized_ttl == 0) {
      result_.first_optimized_ttl = ttl;
    }
  }

  // Convert per-shard integrals into per-shard costs (still shard-local, so
  // a single shard reproduces the unsharded addition sequence exactly).
  // Without price shocks this is the only flush, and the flushed lifetime
  // total equals the raw integral bit for bit.
  double stored_byte_ms_total = 0.0;
  for (Shard& sh : shards_) {
    FlushDataIntegrals(sh);
    stored_byte_ms_total += sh.stored_byte_ms_flushed;
    if (sh.cluster != nullptr) {
      const double node_hours = sh.node_ms / static_cast<double>(kHour);
      sh.costs.Add(CostCategory::kClusterNodes, node_hours * node_price_per_hour_);
    }
  }

  // Deterministic merge, fixed shard order 0..S-1. Counters and per-category
  // costs fold by addition; latency samples concatenate in shard order
  // (PercentileTracker preserves insertion order, so the merged tracker
  // serializes identically at any thread count). Shard 0 hands its sample
  // buffer over; later shards append to it and release theirs.
  for (Shard& sh : shards_) {
    result_.costs.Merge(sh.costs);
    result_.gets += sh.gets;
    result_.cluster_hits += sh.cluster_hits;
    result_.osc_hits += sh.osc_hits;
    result_.remote_fetches += sh.remote_fetches;
    result_.delayed_hits += sh.delayed_hits;
    result_.egress_bytes += sh.egress_bytes;
    result_.latency_ms.Append(std::move(sh.latency_ms));
  }
  result_.mean_stored_bytes = stored_byte_ms_total / static_cast<double>(span);
  if (IsMacaronFamily() || IsElasticClusterCache(cfg_.approach)) {
    // One r5.xlarge hosting the controller and OSC manager.
    result_.costs.Add(CostCategory::kInfra, prices_.VmCost(span));
  }
  if (cfg_.metrics != nullptr) {
    for (const Shard& sh : shards_) {
      cfg_.metrics->MergeFrom(*sh.metrics);
    }
  }
}

RunResult ShardedRuntime::Run() {
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
    // Boundaries due before the next request fire first (including the
    // catch-up over empty windows the sequential engine performed
    // per-request).
    ForEachWindowSegment(
        *chunk, cfg_.window, &next_boundary, [this](SimTime t) { WindowBoundary(t); },
        [this, chunk](size_t begin, size_t end) { ReplaySegment(*chunk, begin, end); });
  }
  WindowBoundary(info_.end_time + 1);
  FinishRun();
  Finalize();
  return std::move(result_);
}

}  // namespace macaron
