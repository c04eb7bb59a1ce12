#include "perfbench/replica.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/replay_batch.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/osc/osc.h"
#include "src/sim/shard_router.h"

namespace macaron {
namespace perfbench {

namespace {

// Per-request calls are timed on every kRequestSampleEvery-th request, and
// latency draws on every kDrawSampleEvery-th draw.
constexpr uint64_t kRequestSampleEvery = 16;
constexpr uint64_t kDrawSampleEvery = 64;

// Median cost of one steady_clock::now() call, measured back to back. A
// span timed with two now() calls carries about one call's cost on top of
// the work it brackets; the replica subtracts it from every span.
int64_t CalibrateNowNanos() {
  std::vector<int64_t> d;
  d.reserve(4001);
  for (int i = 0; i < 4001; ++i) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    d.push_back(NanosBetween(a, b));
  }
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

// Counts every latency draw and times every kDrawSampleEvery-th one. The
// controller's ALC bank and the serving path share it, as they share the
// engine's generator.
class CountingSampler : public LatencySampler {
 public:
  CountingSampler(const FittedLatencyGenerator& fitted, int64_t now_cost, ReplicaReport& out)
      : fitted_(fitted), now_cost_(now_cost), out_(out) {}

  double SampleMs(DataSource source, uint64_t size, Rng& rng) const override {
    if (++out_.draws % kDrawSampleEvery != 0) {
      return fitted_.SampleMs(source, size, rng);
    }
    const Clock::time_point t0 = Clock::now();
    const double v = fitted_.SampleMs(source, size, rng);
    const int64_t ns = NanosBetween(t0, Clock::now()) - now_cost_;
    out_.draw.Add(static_cast<double>(std::max<int64_t>(0, ns)));
    return v;
  }

 private:
  const FittedLatencyGenerator& fitted_;
  int64_t now_cost_;
  ReplicaReport& out_;
};

class Replica {
 public:
  Replica(const EngineConfig& cfg, bool event_setup, RequestSource& source)
      : cfg_(cfg),
        event_setup_(event_setup),
        source_(source),
        info_(source.Info()),
        prices_(ScaledInfraPrices(cfg.prices, cfg.infra_scale)),
        truth_(cfg.scenario),
        fitted_(truth_, /*samples_per_bucket=*/400, cfg.seed ^ 0xfeed),
        now_cost_(CalibrateNowNanos()),
        sampler_(fitted_, now_cost_, out_),
        num_shards_(std::max(cfg.num_shards, 1)),
        router_(num_shards_),
        pool_(1) {
    MACARON_CHECK(cfg.approach == Approach::kMacaron ||
                  cfg.approach == Approach::kMacaronNoCluster);
  }

  ReplicaReport Run();

 private:
  struct Shard {
    std::unique_ptr<ObjectStorageCache> osc;
    std::unique_ptr<CacheCluster> cluster;
    InflightTable inflight;
    Rng rng{0};
    ReplayBatch batch;
  };

  // Per-request layer time of one sampled request.
  struct Spans {
    int64_t osc = 0;
    int64_t cluster = 0;
    int64_t inflight = 0;
    int64_t draw = 0;
    bool draw_called = false;
    bool osc_called = false;
    bool cluster_called = false;
    bool inflight_called = false;
  };

  void Setup();
  void Segment(const ReplayBatch& chunk, size_t begin, size_t end);
  void ReplayShard(Shard& sh);
  template <bool kTimed>
  void Process(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h,
               Spans& sp);
  void Boundary(SimTime t);
  double Draw(Shard& sh, DataSource source, uint64_t size) {
    return sampler_.SampleMs(source, size, sh.rng);
  }

  int64_t Since(Clock::time_point t0) const {
    return std::max<int64_t>(0, NanosBetween(t0, Clock::now()) - now_cost_);
  }
  // Runs `fn`, adding its duration to `acc` when kTimed.
  template <bool kTimed, typename Fn>
  auto Span(int64_t& acc, bool& called, Fn&& fn) {
    if constexpr (kTimed) {
      called = true;
      const Clock::time_point t0 = Clock::now();
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += Since(t0);
      } else {
        auto v = fn();
        acc += Since(t0);
        return v;
      }
    } else {
      return fn();
    }
  }

  const EngineConfig& cfg_;
  bool event_setup_;
  RequestSource& source_;
  const SourceInfo& info_;
  PriceBook prices_;
  GroundTruthLatency truth_;
  FittedLatencyGenerator fitted_;
  ReplicaReport out_;
  int64_t now_cost_;
  CountingSampler sampler_;
  int num_shards_;
  ShardRouter router_;
  ThreadPool pool_;
  std::vector<Shard> shards_;
  std::unique_ptr<MacaronController> controller_;
  uint64_t request_index_ = 0;
};

// The derivations below copy Runner::Setup (src/sim/replay_engine.cc) and,
// with event_setup_, EventRunner::Setup (src/sim/event_engine.cc) for the
// Macaron capacity approaches. A change there that this copy misses shows up
// as a fidelity mismatch in the traced run.
void Replica::Setup() {
  const TraceStats& stats = info_.stats;
  const uint64_t dataset =
      cfg_.dataset_bytes_hint != 0 ? cfg_.dataset_bytes_hint : stats.unique_bytes;
  double sampling_ratio = cfg_.sampling_ratio;
  if (stats.unique_objects > 0) {
    const double needed = 2000.0 / static_cast<double>(stats.unique_objects);
    sampling_ratio = std::clamp(needed, cfg_.sampling_ratio, 1.0);
  }

  shards_.resize(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[static_cast<size_t>(s)];
    sh.rng = Rng((cfg_.seed ^ 0x5eed) ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(s)));
    sh.osc = std::make_unique<ObjectStorageCache>(cfg_.packing);
    if (cfg_.approach == Approach::kMacaron) {
      sh.cluster = std::make_unique<CacheCluster>(prices_.cache_node_usable_bytes);
    }
  }
  for (Shard& sh : shards_) {
    Shard* p = &sh;
    sh.osc->set_evict_observer([p](ObjectId id) { p->inflight.Invalidate(id); });
  }

  ControllerConfig cc;
  cc.window = cfg_.window;
  cc.observation = cfg_.observation;
  cc.analyzer.sampling_ratio = sampling_ratio;
  cc.analyzer.num_minicaches = cfg_.num_minicaches;
  cc.analyzer.min_capacity_bytes = cfg_.min_minicache_bytes;
  cc.analyzer.max_capacity_bytes =
      event_setup_ ? std::max<uint64_t>(stats.unique_bytes, cfg_.min_minicache_bytes * 2)
                   : std::max<uint64_t>(static_cast<uint64_t>(static_cast<double>(dataset) * 1.15),
                                        cfg_.min_minicache_bytes * 2);
  cc.analyzer.decay_per_day = cfg_.decay_per_day;
  if (!event_setup_) {
    cc.analyzer.policy = cfg_.packing.policy;
  }
  cc.analyzer.seed = cfg_.seed ^ 0xc0;
  cc.analyzer.threads = 1;
  cc.packing_enabled = cfg_.packing.packing_enabled;
  cc.packing_block_bytes = cfg_.packing.block_bytes;
  cc.packing_max_objects = cfg_.packing.max_objects_per_block;
  cc.max_cluster_nodes = cfg_.max_cluster_nodes;
  cc.cluster_shards = static_cast<size_t>(num_shards_);
  if (cfg_.approach == Approach::kMacaron) {
    cc.enable_cluster = true;
    cc.analyzer.enable_alc = true;
    cc.cluster_latency_target_ms =
        fitted_.FittedMeanMs(DataSource::kOsc, stats.median_object_bytes) * 0.95;
  }
  controller_ = std::make_unique<MacaronController>(cc, prices_, &sampler_);
  controller_->SetExecution(&pool_, cfg_.async_analyzer);
}

template <bool kTimed>
void Replica::Process(Shard& sh, SimTime time, ObjectId id, uint64_t size, Op op, uint64_t h,
                      Spans& sp) {
  // Serving order of Runner::GetMacaron / ProcessRequest.
  switch (op) {
    case Op::kGet: {
      ++out_.gets;
      const auto pending = Span<kTimed>(sp.inflight, sp.inflight_called,
                                        [&] { return sh.inflight.Pending(id, time); });
      if (pending) {
        ++out_.delayed_hits;
        return;
      }
      if (sh.cluster != nullptr && Span<kTimed>(sp.cluster, sp.cluster_called,
                                                [&] { return sh.cluster->GetHashed(id, h); })) {
        ++out_.cluster_hits;
        if (cfg_.measure_latency) {
          Span<kTimed>(sp.draw, sp.draw_called,
                       [&] { return Draw(sh, DataSource::kCacheCluster, size); });
        }
        Span<kTimed>(sp.osc, sp.osc_called, [&] { return sh.osc->Contains(id); });
        return;
      }
      if (Span<kTimed>(sp.osc, sp.osc_called, [&] { return sh.osc->LookupPrehashed(id, h); })) {
        ++out_.osc_hits;
        if (cfg_.measure_latency) {
          Span<kTimed>(sp.draw, sp.draw_called, [&] { return Draw(sh, DataSource::kOsc, size); });
        }
        if (sh.cluster != nullptr) {
          Span<kTimed>(sp.cluster, sp.cluster_called, [&] { sh.cluster->PutHashed(id, h, size); });
        }
        return;
      }
      ++out_.remote_fetches;
      const double lat = Span<kTimed>(sp.draw, sp.draw_called,
                                      [&] { return Draw(sh, DataSource::kRemoteLake, size); });
      Span<kTimed>(sp.inflight, sp.inflight_called,
                   [&] { return sh.inflight.Insert(id, time + static_cast<SimTime>(lat) + 1); });
      Span<kTimed>(sp.osc, sp.osc_called, [&] { sh.osc->AdmitPrehashed(id, h, size); });
      if (sh.cluster != nullptr) {
        Span<kTimed>(sp.cluster, sp.cluster_called, [&] { sh.cluster->PutHashed(id, h, size); });
      }
      return;
    }
    case Op::kPut:
      Span<kTimed>(sp.osc, sp.osc_called, [&] { sh.osc->AdmitPrehashed(id, h, size); });
      if (sh.cluster != nullptr) {
        Span<kTimed>(sp.cluster, sp.cluster_called, [&] { sh.cluster->PutHashed(id, h, size); });
      }
      return;
    case Op::kDelete:
      Span<kTimed>(sp.osc, sp.osc_called, [&] { sh.osc->DeletePrehashed(id, h); });
      if (sh.cluster != nullptr) {
        Span<kTimed>(sp.cluster, sp.cluster_called, [&] { sh.cluster->DeleteHashed(id, h); });
      }
      Span<kTimed>(sp.inflight, sp.inflight_called, [&] { sh.inflight.Erase(id); });
      return;
  }
}

void Replica::ReplayShard(Shard& sh) {
  const ReplayBatch& b = sh.batch;
  constexpr size_t kPrefetchAhead = 8;  // as in Runner::ReplayShardBatch
  const size_t n = b.size();
  const Clock::time_point loop_start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      sh.osc->PrefetchPrehashed(b.hashes[i + kPrefetchAhead]);
    }
    Spans sp;
    if (++request_index_ % kRequestSampleEvery != 0) {
      Process<false>(sh, b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i], sp);
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    Process<true>(sh, b.times[i], b.ids[i], b.sizes[i], b.ops[i], b.hashes[i], sp);
    out_.sampled_outer_ns += static_cast<double>(Since(t0));
    ++out_.sampled_requests;
    out_.osc_sampled_ns += static_cast<double>(sp.osc);
    out_.cluster_sampled_ns += static_cast<double>(sp.cluster);
    out_.inflight_sampled_ns += static_cast<double>(sp.inflight);
    out_.draw_sampled_ns += static_cast<double>(sp.draw);
    if (sp.osc_called) {
      out_.osc_req.Add(static_cast<double>(sp.osc));
    }
    if (sp.cluster_called) {
      out_.cluster_req.Add(static_cast<double>(sp.cluster));
    }
  }
  out_.serving_loop_ns += static_cast<double>(Since(loop_start));
}

void Replica::Segment(const ReplayBatch& chunk, size_t begin, size_t end) {
  for (size_t k = begin; k < end; ++k) {
    shards_[router_.ShardOf(chunk.hashes[k])].batch.Append(chunk.ids[k], chunk.hashes[k],
                                                          chunk.sizes[k], chunk.ops[k],
                                                          chunk.times[k]);
  }
  for (Shard& sh : shards_) {
    ReplayShard(sh);
    sh.batch.Clear();
  }
  const Clock::time_point t0 = Clock::now();
  controller_->ObserveColumns(chunk, begin, end);
  out_.observe.Add(static_cast<double>(Since(t0)));
}

void Replica::Boundary(SimTime t) {
  Clock::time_point t0 = Clock::now();
  uint64_t garbage = 0;
  for (Shard& sh : shards_) {
    sh.osc->FlushOpenBlock();
    sh.osc->RunGc();
    garbage += sh.osc->garbage_bytes();
  }
  int64_t maintain = Since(t0);

  t0 = Clock::now();
  const ReconfigDecision d = controller_->Reconfigure(t, garbage);
  out_.reconfigure.Add(static_cast<double>(Since(t0)));

  if (d.optimized) {
    ++out_.reconfigs;
    out_.osc_capacity.emplace_back(t, d.osc_capacity);
    int64_t rescale = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      t0 = Clock::now();
      sh.osc->EvictToCapacity(ShareOf(d.osc_capacity, num_shards_, static_cast<int>(s)));
      maintain += Since(t0);
      if (sh.cluster != nullptr) {
        t0 = Clock::now();
        const std::vector<uint32_t> added =
            sh.cluster->Resize(ShareOf(d.cluster_nodes, num_shards_, static_cast<int>(s)));
        if (cfg_.enable_priming) {
          sh.cluster->Prime(*sh.osc, added);
        }
        rescale += Since(t0);
      }
    }
    if (cfg_.approach == Approach::kMacaron) {
      out_.rescale.Add(static_cast<double>(rescale));
    }
  }

  t0 = Clock::now();
  for (Shard& sh : shards_) {
    sh.osc->TakeOps();
  }
  maintain += Since(t0);
  out_.maintain.Add(static_cast<double>(maintain));

  t0 = Clock::now();
  for (Shard& sh : shards_) {
    sh.inflight.Sweep(t);
  }
  out_.sweep.Add(static_cast<double>(Since(t0)));
}

ReplicaReport Replica::Run() {
  Setup();
  out_.requests = info_.num_requests;
  if (info_.empty()) {
    return std::move(out_);
  }
  source_.Reset();
  ReplayBatch chunk;
  SimTime next_boundary = cfg_.window;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = source_.FillNext(&chunk);
    out_.decode.Add(static_cast<double>(Since(t0)));
    if (!ok) {
      break;
    }
    const size_t n = chunk.size();
    size_t i = 0;
    while (i < n) {
      while (chunk.times[i] >= next_boundary) {
        Boundary(next_boundary);
        next_boundary += cfg_.window;
      }
      size_t j = i;
      while (j < n && chunk.times[j] < next_boundary) {
        ++j;
      }
      Segment(chunk, i, j);
      i = j;
    }
  }
  Boundary(info_.end_time + 1);
  out_.wall_s = SecondsBetween(start, Clock::now());
  return std::move(out_);
}

}  // namespace

ReplicaReport RunReplica(const EngineConfig& cfg, bool event_setup, RequestSource& source) {
  Replica replica(cfg, event_setup, source);
  return replica.Run();
}

}  // namespace perfbench
}  // namespace macaron
