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

// The replay engine's policy on the shared runtime (sharded_runtime.h): one
// request handler per approach family, picked once per shard batch,
// admission at request time, and decisions applied at the boundary that
// takes them.
class Runner final : public ShardedRuntime {
 public:
  Runner(const EngineConfig& cfg, RequestSource& source) : ShardedRuntime(cfg, source) {
    if (cfg_.approach == Approach::kFlashEcpc) {
      cluster_hit_source_ = DataSource::kFlash;
    }
  }

 private:
  // Request fields arrive as columns straight from the shard batch; no
  // Request struct is materialized on the replay path. `h` is Mix64(id),
  // computed once at ingest and reused by every cache level.
  using Handler = void (Runner::*)(Shard&, SimTime, ObjectId, uint64_t, Op, uint64_t);
  template <Handler kHandle>
  void Serve(Shard& sh) {
    ServeBatch(sh, [this](Shard& s, SimTime time, ObjectId id, uint64_t size, Op op,
                          uint64_t h) { (this->*kHandle)(s, time, id, size, op, h); });
  }
  void ServeShard(Shard& sh) override {
    switch (cfg_.approach) {
      case Approach::kRemote:
        return Serve<&Runner::ServeRemote>(sh);
      case Approach::kReplicated:
        return Serve<&Runner::ServeReplicated>(sh);
      case Approach::kEcpc:
      case Approach::kFlashEcpc:
        return Serve<&Runner::ServeEcpc>(sh);
      default:
        return Serve<&Runner::ServeMacaron>(sh);
    }
  }
  void MaintainShard(Shard& sh, SimTime t) override;
  void ApplyDecision(SimTime t, const ReconfigDecision& d) override;

  // Write-through: a PUT to the remote lake (free ingress, identical across
  // approaches) is not metered; each handler meters only cache-side effects.
  void ServeRemote(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void ServeReplicated(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void ServeEcpc(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void ServeMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);
  void RecordLatency(Shard& sh, DataSource source, uint64_t size);

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

void Runner::ServeRemote(Shard& sh, SimTime time, ObjectId, uint64_t size, Op op, uint64_t) {
  Integrate(sh, time);
  if (op == Op::kGet) {
    ++sh.gets;
    ChargeRemoteFetch(sh, size);
    RecordLatency(sh, DataSource::kRemoteLake, size);
  }
}

void Runner::ServeReplicated(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op,
                             uint64_t) {
  Integrate(sh, time);
  if (op == Op::kDelete) {
    if (sh.seen.erase(id) > 0) {
      sh.known_dataset_bytes -= std::min(sh.known_dataset_bytes, size);
    }
    return;
  }
  if (sh.seen.insert(id).second) {
    sh.known_dataset_bytes += size;
    // Replication must transfer every byte of the (growing) dataset once,
    // dark data included: first-touch bytes proxy the dataset growth rate
    // the paper bills sync egress on (§7.1).
    const double sync_bytes = static_cast<double>(size) / (1.0 - cfg_.dark_data_fraction);
    sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(static_cast<uint64_t>(sync_bytes)));
    sh.egress_bytes += static_cast<uint64_t>(sync_bytes);
  }
  if (op == Op::kGet) {
    // All reads are served by the local replica.
    ++sh.gets;
    ++sh.osc_hits;
    sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
    RecordLatency(sh, DataSource::kOsc, size);
  }
}

void Runner::ServeEcpc(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h) {
  Integrate(sh, time);
  if (op == Op::kDelete) {
    sh.cluster->DeleteHashed(id, h);
    return;
  }
  if (op == Op::kGet) {
    ++sh.gets;
    if (sh.cluster->GetHashed(id, h)) {
      ++sh.cluster_hits;
      RecordLatency(sh, cluster_hit_source_, size);
      return;
    }
    ChargeRemoteFetch(sh, size);
    RecordLatency(sh, DataSource::kRemoteLake, size);
  }
  sh.cluster->PutHashed(id, h, size);
}

void Runner::ServeMacaron(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op,
                          uint64_t h) {
  Integrate(sh, time);
  // The bypass skips the OSC and, with it, the TTL shadow. Only a capacity
  // decision engages the bypass, so it never does for macaron-ttl, and
  // static TTL has no controller: a bypassed shard has no TTL shadow.
  if (op == Op::kPut) {
    return Admit(sh, time, id, h, size, !admission_bypass_);
  }
  if (op == Op::kDelete) {
    return Forget(sh, id, h);
  }
  ++sh.gets;
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
  if (OscHit(sh, time, id, h, size)) {
    RecordLatency(sh, DataSource::kOsc, size);
    return;
  }
  ChargeRemoteFetch(sh, size);
  const double lat = fitted_.SampleMs(DataSource::kRemoteLake, size, sh.rng);
  if (cfg_.measure_latency) {
    sh.latency_ms.Add(lat);
  }
  sh.inflight.InsertPrehashed(id, h, time + static_cast<SimTime>(lat) + 1);
  Admit(sh, time, id, h, size, !admission_bypass_);
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
    result_.cluster_nodes_timeline.emplace_back(t, total);
    return;
  }
  pool_.ParallelFor(shards_.size(), [&](size_t s) { ApplyShardDecision(shards_[s], t, d); });
  RecordDecision(t, d);
  // Admission-bypass extension: engage when even the best cache
  // configuration is predicted to cost at least as much per window
  // as serving everything remotely (no capacity, no packing PUTs).
  if (cfg_.enable_admission_bypass && cfg_.approach != Approach::kMacaronTtl &&
      !d.cost_curve.empty()) {
    const double best_with_cache = d.cost_curve.y(d.cost_curve.ArgMin());
    const double no_cache_egress = prices_.EgressCost(
        static_cast<uint64_t>(d.expected_window_get_bytes));
    if (best_with_cache >= no_cache_egress * 0.98) {
      ++min_capacity_streak_;
    } else {
      min_capacity_streak_ = 0;
    }
    admission_bypass_ = min_capacity_streak_ >= kAdmissionBypassWindows;
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
