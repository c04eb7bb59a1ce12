#include "src/sim/replay_engine.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/sim/sharded_runtime.h"

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

// The replay engine's policy on the shared runtime (sharded_runtime.h):
// per-approach request paths, admission at request time, and decisions
// applied at the boundary that takes them.
class Runner final : public ShardedRuntime {
 public:
  Runner(const EngineConfig& cfg, RequestSource& source) : ShardedRuntime(cfg, source) {
    if (cfg_.approach == Approach::kFlashEcpc) {
      cluster_hit_source_ = DataSource::kFlash;
    }
  }

 private:
  void ServeShard(Shard& sh) override {
    ServeBatch(sh, [this](Shard& s, SimTime time, ObjectId id, uint64_t size, Op op,
                          uint64_t h) { ProcessRequest(s, time, id, size, op, h); });
  }
  void MaintainShard(Shard& sh, SimTime t) override;
  void ApplyDecision(SimTime t, const ReconfigDecision& d) override;

  // Request fields arrive as columns straight from the shard batch; no
  // Request struct is materialized on the replay path. `h` is Mix64(id),
  // computed once at ingest and reused by every cache level.
  void ProcessRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void RecordLatency(Shard& sh, DataSource source, uint64_t size);
  size_t TotalClusterNodes() const {
    size_t total = 0;
    for (const Shard& sh : shards_) {
      total += sh.cluster->num_nodes();
    }
    return total;
  }

  // Per-approach GET paths.
  void GetRemote(Shard& sh, uint64_t size);
  void GetReplicated(Shard& sh, uint64_t size);
  void GetEcpc(Shard& sh, ObjectId id, uint64_t size, uint64_t h);
  void GetMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, uint64_t h);

  DataSource cluster_hit_source_ = DataSource::kCacheCluster;
  // Admission-bypass extension state. Written only at window boundaries
  // (shards idle), read by shards during replay.
  bool admission_bypass_ = false;
  int min_capacity_streak_ = 0;
};

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
  if (auto completion = sh.inflight.PendingPrehashed(id, h, time)) {
    ++sh.delayed_hits;
    if (cfg_.measure_latency) {
      sh.latency_ms.Add(static_cast<double>(*completion - time));
    }
    return;
  }
  if (sh.cluster != nullptr && sh.cluster->GetHashed(id, h)) {
    ++sh.cluster_hits;
    RecordLatency(sh, DataSource::kCacheCluster, size);
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
  sh.inflight.InsertPrehashed(id, h, time + static_cast<SimTime>(lat) + 1);
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
          sh.inflight.ErasePrehashed(id, h);
          break;
      }
      break;
  }
}

void Runner::MaintainShard(Shard& sh, SimTime t) {
  ShardedRuntime::MaintainShard(sh, t);
  if (cfg_.approach == Approach::kStaticCapacity && t >= cfg_.observation) {
    MACARON_CHECK(cfg_.static_capacity_bytes > 0);
    sh.osc->EvictToCapacity(ShareOf(cfg_.static_capacity_bytes, num_shards_, sh.index));
  }
}

void Runner::ApplyDecision(SimTime t, const ReconfigDecision& d) {
  if (IsElasticClusterCache(cfg_.approach)) {
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        (d.osc_capacity + node_usable_ - 1) / node_usable_, cfg_.max_cluster_nodes));
    const size_t total = RoundNodesToShards(want, static_cast<size_t>(num_shards_),
                                            cfg_.max_cluster_nodes);
    pool_.ParallelFor(shards_.size(), [&](size_t s) {
      shards_[s].cluster->Resize(ShareOf(total, num_shards_, static_cast<int>(s)));
    });
    result_.cluster_nodes_timeline.emplace_back(t, TotalClusterNodes());
    return;
  }
  pool_.ParallelFor(shards_.size(), [&](size_t s) { ApplyShardDecision(shards_[s], t, d); });
  if (cfg_.approach == Approach::kMacaronTtl) {
    if (result_.first_optimized_ttl == 0) {
      result_.first_optimized_ttl = d.ttl;
    }
    result_.ttl_timeline.emplace_back(t, d.ttl);
    return;
  }
  if (result_.first_optimized_capacity == 0) {
    result_.first_optimized_capacity = d.osc_capacity;
  }
  result_.osc_capacity_timeline.emplace_back(t, d.osc_capacity);
  if (shards_[0].cluster != nullptr) {
    result_.cluster_nodes_timeline.emplace_back(t, TotalClusterNodes());
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
}

}  // namespace

RunResult ReplayEngine::Run(const Trace& trace) const {
  ValidateConfig(config_, EngineKind::kReplay);  // before the source's stats pass
  TraceSource source(trace);
  return Run(source);
}

RunResult ReplayEngine::Run(RequestSource& source) const {
  ValidateConfig(config_, EngineKind::kReplay);
  Runner runner(config_, source);
  return runner.Run();
}

}  // namespace macaron
