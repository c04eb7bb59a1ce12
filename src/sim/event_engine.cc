#include "src/sim/event_engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/cloudsim/event_queue.h"
#include "src/common/check.h"
#include "src/sim/sharded_runtime.h"

namespace macaron {

namespace {

// Per-request client -> cache engine hop (consistent-hash routing + RPC).
constexpr double kClientHopMs = 0.3;

// The prototype-fidelity policy on the shared runtime (sharded_runtime.h).
// Each shard also owns a discrete-event queue: deferred admissions and
// reconfiguration applies are shard-local events, drained before every
// request and at every boundary. Timeline entries for applied
// reconfigurations are recorded at their apply times when the decision is
// scheduled and stably sorted once at the end, reproducing the single
// global event queue's apply order bit-for-bit at any thread count.
class EventRunner final : public ShardedRuntime {
 public:
  EventRunner(const EngineConfig& cfg, RequestSource& source)
      : ShardedRuntime(cfg, source), queues_(static_cast<size_t>(num_shards_)) {
    MACARON_CHECK(IsMacaronController(cfg_.approach));
    result_.approach_name += "-proto";
  }

 private:
  void ServeShard(Shard& sh) override {
    ServeBatch(sh, [this](Shard& s, SimTime time, ObjectId id, uint64_t size, Op op,
                          uint64_t h) { HandleRequest(s, time, id, size, op, h); });
  }
  void MaintainShard(Shard& sh, SimTime t) override {
    queues_[static_cast<size_t>(sh.index)].RunUntil(t);  // events due by the boundary
    ShardedRuntime::MaintainShard(sh, t);
  }
  void ApplyDecision(SimTime t, const ReconfigDecision& d) override;
  void FinishRun() override;

  // Request fields arrive as columns straight from the shard batch; no
  // Request struct is materialized on the replay path. `h` is the
  // ingest-time Mix64(id).
  void HandleRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h);

  std::vector<EventQueue> queues_;  // one per shard, indexed by Shard::index
};

void EventRunner::HandleRequest(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op,
                                uint64_t h) {
  // Shard-local events due by this request's time (deferred admissions,
  // scheduled reconfiguration applies) fire first, exactly as the single
  // global event queue interleaved them with the request stream.
  EventQueue& queue = queues_[static_cast<size_t>(sh.index)];
  queue.RunUntil(time);
  Integrate(sh, time);
  switch (op) {
    case Op::kGet: {
      ++sh.gets;
      if (sh.cluster != nullptr && sh.cluster->GetHashed(id, h)) {
        ++sh.cluster_hits;
        if (cfg_.measure_latency) {
          sh.latency_ms.Add(
              kClientHopMs + fitted_.SampleMs(DataSource::kCacheCluster, size, sh.rng));
        }
        return;
      }
      if (sh.osc->LookupPrehashed(id, h)) {
        ++sh.osc_hits;
        if (sh.ttl_shadow != nullptr) {
          sh.ttl_shadow->GetPrehashed(id, h, time);
        }
        if (cfg_.measure_latency) {
          sh.latency_ms.Add(kClientHopMs +
                            fitted_.SampleMs(DataSource::kOsc, size, sh.rng));
        }
        if (sh.cluster != nullptr) {
          sh.cluster->PutHashed(id, h, size);
        }
        return;
      }
      if (auto completion = sh.inflight.PendingPrehashed(id, h, time)) {
        ++sh.delayed_hits;
        if (cfg_.measure_latency) {
          sh.latency_ms.Add(kClientHopMs + static_cast<double>(*completion - time));
        }
        return;
      }
      ++sh.remote_fetches;
      sh.egress_bytes += size;
      sh.costs.Add(CostCategory::kEgress, prices_.EgressCost(size));
      sh.costs.Add(CostCategory::kOperation, prices_.GetCost(1));
      const double lat = fitted_.SampleMs(DataSource::kRemoteLake, size, sh.rng);
      if (cfg_.measure_latency) {
        sh.latency_ms.Add(kClientHopMs + lat);
      }
      const SimTime completion = time + static_cast<SimTime>(lat) + 1;
      // Admission happens when the fetch completes; the event carries the
      // hash so completion does not rehash, and the fill ticket so a DELETE
      // or mid-flight eviction between now and then cancels the admission
      // instead of resurrecting a dead object.
      const uint64_t ticket = sh.inflight.InsertPrehashed(id, h, completion);
      Shard* p = &sh;
      queue.Schedule(completion, [this, p, id, h, size, ticket](SimTime now) {
        if (!p->inflight.ClaimTicketPrehashed(id, h, ticket)) {
          return;  // superseded: object deleted/evicted/expired mid-flight
        }
        Integrate(*p, now);
        p->osc->AdmitPrehashed(id, h, size);
        if (p->ttl_shadow != nullptr) {
          p->ttl_shadow->PutPrehashed(id, h, size, now);
        }
        if (p->cluster != nullptr) {
          p->cluster->PutHashed(id, h, size);
        }
      });
      return;
    }
    case Op::kPut:
      sh.osc->AdmitPrehashed(id, h, size);
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->PutPrehashed(id, h, size, time);
      }
      if (sh.cluster != nullptr) {
        sh.cluster->PutHashed(id, h, size);
      }
      return;
    case Op::kDelete:
      sh.osc->DeletePrehashed(id, h);
      if (sh.ttl_shadow != nullptr) {
        sh.ttl_shadow->ErasePrehashed(id, h);
      }
      if (sh.cluster != nullptr) {
        sh.cluster->DeleteHashed(id, h);
      }
      sh.inflight.ErasePrehashed(id, h);
      return;
  }
}

void EventRunner::ApplyDecision(SimTime t, const ReconfigDecision& d) {
  // Reconfiguration is applied only after the pipeline completes; requests
  // continue to be served meanwhile (§7.7: no downtime). Each shard
  // schedules its local apply; timeline entries are recorded here at the
  // apply time and sorted into apply order in FinishRun (sharded queues
  // have no global "first apply runs first" ordering to piggyback on).
  const SimTime apply_at = t + static_cast<SimTime>(d.reconfig_seconds * 1000.0);
  const auto decision = std::make_shared<const ReconfigDecision>(d);
  for (Shard& sh : shards_) {
    Shard* p = &sh;
    queues_[static_cast<size_t>(sh.index)].Schedule(
        apply_at, [this, p, decision](SimTime now) { ApplyShardDecision(*p, now, *decision); });
  }
  if (cfg_.approach == Approach::kMacaronTtl) {
    result_.ttl_timeline.emplace_back(apply_at, d.ttl);
    return;
  }
  result_.osc_capacity_timeline.emplace_back(apply_at, d.osc_capacity);
  if (shards_[0].cluster != nullptr) {
    result_.cluster_nodes_timeline.emplace_back(apply_at, d.cluster_nodes);
  }
}

void EventRunner::FinishRun() {
  // Late events (admissions, a final scheduled apply) still run, as with the
  // single global queue.
  pool_.ParallelFor(queues_.size(), [&](size_t s) { queues_[s].RunAll(); });

  // Timeline entries were appended at scheduling time; apply order is time
  // order with scheduling order breaking ties (the global queue's tie rule).
  const auto by_time = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::stable_sort(result_.osc_capacity_timeline.begin(),
                   result_.osc_capacity_timeline.end(), by_time);
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
      result_.first_optimized_ttl = static_cast<SimDuration>(ttl);
    }
  }
}

}  // namespace

RunResult EventEngine::Run(const Trace& trace) const {
  ValidateConfig(config_, EngineKind::kEvent);  // before the source's stats pass
  TraceSource source(trace);
  return Run(source);
}

RunResult EventEngine::Run(RequestSource& source) const {
  ValidateConfig(config_, EngineKind::kEvent);
  EventRunner runner(config_, source);
  return runner.Run();
}

}  // namespace macaron
