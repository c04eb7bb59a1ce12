// Microbenchmarks (google-benchmark): throughput of the building blocks the
// controller leans on — LRU/TTL cache ops, Zipf sampling, spatial sampling,
// the mini-cache bank, consistent-hash routing, OSC packing and serving, the
// latency generator, and the trace pipeline (columnar codec, stats pass).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cache/flat_index.h"
#include "src/cache/lru_cache.h"
#include "src/cache/simd.h"
#include "src/cache/slab_lru.h"
#include "src/cache/ttl_cache.h"
#include "src/common/hash.h"
#include "src/cloudsim/latency.h"
#include "src/cluster/cache_cluster.h"
#include "src/cluster/hash_ring.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/controller/analyzer.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/minisim/ttl_bank.h"
#include "src/osc/osc.h"
#include "src/sim/engine_config.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"
#include "src/sweep/scheduler.h"
#include "src/trace/columnar_io.h"
#include "src/trace/request_source.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

void BM_LruCacheGetPut(benchmark::State& state) {
  LruCache cache(64 * 1024 * 1024);
  Rng rng(1);
  ZipfSampler zipf(100000, 0.8);
  for (auto _ : state) {
    const ObjectId id = zipf.Sample(rng);
    if (!cache.Get(id)) {
      cache.Put(id, 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheGetPut);

void BM_TtlCacheGetPut(benchmark::State& state) {
  TtlCache cache(3600 * 1000);
  Rng rng(2);
  ZipfSampler zipf(100000, 0.8);
  SimTime now = 0;
  for (auto _ : state) {
    const ObjectId id = zipf.Sample(rng);
    now += 10;
    if (!cache.Get(id, now)) {
      cache.Put(id, 4096, now);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TtlCacheGetPut);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(3);
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_SpatialSampler(benchmark::State& state) {
  const SpatialSampler sampler(0.05, 42);
  ObjectId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Admit(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpatialSampler);

// One iteration = one 4096-row segment of a precomputed chunk through a
// bank (sampling, batching and, every ~80k rows, a batch replay).
void BM_MrcBankProcess(benchmark::State& state) {
  static const ReplayBatch* stream = [] {
    std::vector<Request> reqs;
    reqs.reserve(1 << 20);
    Rng rng(4);
    ZipfSampler zipf(500000, 0.6);
    for (size_t i = 0; i < (1 << 20); ++i) {
      reqs.push_back({static_cast<SimTime>(i), zipf.Sample(rng), 100000, Op::kGet});
    }
    return new ReplayBatch(ToChunk(reqs));
  }();
  constexpr size_t kSegment = 4096;
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, static_cast<int>(state.range(0))),
               0.05, 7);
  size_t begin = 0;
  for (auto _ : state) {
    bank.ProcessColumns(*stream, begin, begin + kSegment);
    begin = (begin + kSegment) % stream->size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kSegment));
}
BENCHMARK(BM_MrcBankProcess)->Arg(48)->Arg(200);

// --- Cache core throughput ---
//
// The BM_CacheCore* group isolates the cache data structures from request
// generation: the Zipf stream is precomputed once and replayed from a flat
// array, so the loop body is Get + (on miss) Put and nothing else. Capacity
// selects the hit ratio: the stream draws from 100k objects of 4 KB
// (~410 MB of distinct data), so 8 MB is miss-heavy and 256 MB hit-heavy;
// the realized ratio is reported as a counter.

const std::vector<ObjectId>& CacheCoreStream() {
  static const std::vector<ObjectId>* stream = [] {
    auto* s = new std::vector<ObjectId>(1 << 22);
    Rng rng(11);
    ZipfSampler zipf(100000, 0.8);
    for (ObjectId& id : *s) {
      id = zipf.Sample(rng);
    }
    return s;
  }();
  return *stream;
}

void BM_CacheCoreGetPut(benchmark::State& state) {
  LruCache cache(static_cast<uint64_t>(state.range(0)) * 1024 * 1024);
  const std::vector<ObjectId>& stream = CacheCoreStream();
  const size_t mask = stream.size() - 1;
  size_t i = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    const ObjectId id = stream[i++ & mask];
    if (cache.Get(id)) {
      ++hits;
    } else {
      cache.Put(id, 4096);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_ratio"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CacheCoreGetPut)->Arg(8)->Arg(64)->Arg(256);

// --- FlatIndex probe micro-costs ---
//
// Isolates the index from the cache around it: no recency list, no slab
// churn in the probe loops, just the tag-group scan (or its scalar
// fallback — the report's "macaron_simd" context records which one this
// binary compiled). Hit/Miss replay precomputed (id, hash) columns against
// a table of state.range(0) entries, whose key source is a value-indexed id
// column (a hit reads its key there, as callers' rows supply it);
// EvictErase runs the eviction pattern —
// erase the oldest entry through its slab backlink (backward-shift
// deletion), then insert a fresh key — at a steady population of that
// size. The sizes bracket the cache hierarchy: 2^14 keys fit in L2, 2^20
// keys put the table out in DRAM, and 2^16 sits between.

struct ProbeStream {
  std::vector<ObjectId> ids;
  std::vector<uint64_t> hashes;
};

// 2^20 probes drawn uniformly from [base, base + keys).
ProbeStream MakeProbeStream(ObjectId base, size_t keys) {
  ProbeStream stream;
  Rng rng(17 + base);
  stream.ids.resize(1 << 20);
  stream.hashes.resize(1 << 20);
  for (size_t k = 0; k < stream.ids.size(); ++k) {
    const ObjectId id = base + rng.NextU64() % keys;
    stream.ids[k] = id;
    stream.hashes[k] = Mix64(id);
  }
  return stream;
}

struct ProbeTable {
  FlatIndex index;
  std::vector<ObjectId> ids;  // value -> key
};

ProbeTable MakeProbeTable(size_t keys) {
  ProbeTable t;
  t.index.Reserve(keys);
  for (ObjectId id = 0; id < keys; ++id) {
    t.ids.push_back(id);
    t.index.EmplacePrehashed(Mix64(id), static_cast<uint32_t>(id));
  }
  return t;
}

void RunFlatIndexProbe(benchmark::State& state, const ProbeTable& t,
                       const ProbeStream& stream) {
  const size_t mask = stream.ids.size() - 1;
  const auto key_of = [&t](uint32_t v) { return t.ids[v]; };
  size_t i = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    const size_t k = i++ & mask;
    found += t.index.FindPrehashed(stream.ids[k], stream.hashes[k], key_of) != FlatIndex::kEmpty;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatIndexProbeHit(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  const ProbeStream stream = MakeProbeStream(0, keys);  // all present
  const ProbeTable table = MakeProbeTable(keys);
  RunFlatIndexProbe(state, table, stream);
}
BENCHMARK(BM_FlatIndexProbeHit)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);

void BM_FlatIndexProbeMiss(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  const ProbeStream stream = MakeProbeStream(keys, keys);  // all absent
  const ProbeTable table = MakeProbeTable(keys);
  RunFlatIndexProbe(state, table, stream);
}
BENCHMARK(BM_FlatIndexProbeMiss)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);

void BM_FlatIndexProbeEvictErase(benchmark::State& state) {
  const size_t keys = static_cast<size_t>(state.range(0));
  NodeSlab slab;
  FlatIndex index;
  index.Reserve(keys);
  std::vector<uint32_t> ring(keys);  // slab slot of each live key
  ObjectId next = 0;
  for (; next < keys; ++next) {
    const uint64_t h = Mix64(next);
    const uint32_t slot = slab.Allocate(next, 1);
    index.EmplacePrehashed(h, slot, &slab);
    ring[next] = slot;
  }
  for (auto _ : state) {
    // One eviction + one admission, as the policies' miss paths do it: the
    // victim is already known (here via the ring, there via the recency
    // list), so the erase is backlink-direct with zero probing.
    const size_t pos = next % keys;
    index.EraseCell(slab.node(ring[pos]).cell, &slab);
    slab.Free(ring[pos]);
    const uint64_t h = Mix64(next);
    const uint32_t slot = slab.Allocate(next, 1);
    index.EmplacePrehashed(h, slot, &slab);
    ring[pos] = slot;
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatIndexProbeEvictErase)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);

// One iteration = one full analysis window replayed through a mini-cache
// bank (sequential, grid of state.range(0) points) from a precomputed
// request stream. After the first window the slabs are at steady state, so
// this measures the allocation-free replay path end to end.
void BM_CacheCoreBankWindowReplay(benchmark::State& state) {
  static const ReplayBatch* window = [] {
    std::vector<Request> reqs;
    reqs.reserve(1 << 18);
    Rng rng(12);
    ZipfSampler zipf(500000, 0.6);
    for (size_t i = 0; i < (1 << 18); ++i) {
      reqs.push_back({static_cast<SimTime>(i), zipf.Sample(rng), 100000, Op::kGet});
    }
    return new ReplayBatch(ToChunk(reqs));
  }();
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, static_cast<int>(state.range(0))),
               0.05, 7);
  for (auto _ : state) {
    bank.ProcessColumns(*window, 0, window->size());
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(window->size()));
  state.counters["allocated_nodes"] = static_cast<double>(bank.allocated_nodes());
}
BENCHMARK(BM_CacheCoreBankWindowReplay)->Arg(48)->Unit(benchmark::kMillisecond);

// --- Per-stage mini-sim window replay (the hash-once hot path) ---
//
// One iteration = one full analysis window through a bank: sampler
// admission (hash once), SoA batch buffering, and the policy-templated
// ReplayMiniSim kernel across every grid point — or, for LRU (Arg 0), the
// bank's one-pass timeline over the whole grid. The BM_MiniSimWindow*
// group measures each bank's end-to-end window cost; the per-policy MRC
// variants compare the one-pass LRU replay with the per-grid kernels.

const ReplayBatch& MiniSimWindowStream() {
  static const ReplayBatch* window = [] {
    std::vector<Request> reqs;
    reqs.reserve(1 << 17);
    Rng rng(13);
    ZipfSampler zipf(300000, 0.7);
    for (size_t i = 0; i < (1 << 17); ++i) {
      reqs.push_back({static_cast<SimTime>(i * 8), zipf.Sample(rng), 100000, Op::kGet});
    }
    return new ReplayBatch(ToChunk(reqs));
  }();
  return *window;
}

void BM_MiniSimWindowMrc(benchmark::State& state) {
  const auto kind = static_cast<EvictionPolicyKind>(state.range(0));
  MrcBank bank(UniformSizeGrid(50'000'000, 5'000'000'000, 48), 0.05, 7, kind);
  for (auto _ : state) {
    bank.ProcessColumns(MiniSimWindowStream(), 0, MiniSimWindowStream().size());
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
  state.SetLabel(EvictionPolicyName(kind));
}
BENCHMARK(BM_MiniSimWindowMrc)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_MiniSimWindowTtl(benchmark::State& state) {
  TtlBank bank(StandardTtlGrid(7 * kDay), 0.05, 7);
  for (auto _ : state) {
    bank.ProcessColumns(MiniSimWindowStream(), 0, MiniSimWindowStream().size());
    bank.EndWindow(15 * kMinute);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
}
BENCHMARK(BM_MiniSimWindowTtl)->Unit(benchmark::kMillisecond);

// --- Columnar observe path (the engines' ObserveColumns hot path) ---
//
// One iteration = one full analysis window through a three-bank analyzer
// (MRC + ALC + TTL), fed the way the engines feed it: whole SoA chunks with
// ingest-domain hashes through ProcessColumns (salted rehash, branch-free
// compaction, bulk append, batch replay).
void BM_ObserveColumns(benchmark::State& state) {
  static const std::vector<ReplayBatch>* chunks = [] {
    auto* c = new std::vector<ReplayBatch>();
    Rng rng(14);
    ZipfSampler zipf(300000, 0.7);
    constexpr size_t kChunk = 4096;
    constexpr size_t kTotal = 1 << 17;
    SimTime t = 0;
    for (size_t done = 0; done < kTotal; done += kChunk) {
      ReplayBatch chunk;
      chunk.Reserve(kChunk);
      for (size_t i = 0; i < kChunk; ++i) {
        const ObjectId id = zipf.Sample(rng);
        Op op = Op::kGet;
        if (i % 16 == 7) {
          op = Op::kPut;
        }
        chunk.Append(id, Mix64(id), 100000, op, t += 8);
      }
      c->push_back(std::move(chunk));
    }
    return c;
  }();
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 9);
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 0.05;
  cfg.num_minicaches = 24;
  cfg.min_capacity_bytes = 50'000'000;
  cfg.max_capacity_bytes = 5'000'000'000;
  cfg.enable_alc = true;
  cfg.enable_ttl = true;
  cfg.max_ttl = 7 * kDay;
  WorkloadAnalyzer analyzer(cfg, &gen);
  int64_t requests = 0;
  for (auto _ : state) {
    for (const ReplayBatch& chunk : *chunks) {
      analyzer.ProcessColumns(chunk, 0, chunk.size());
      requests += static_cast<int64_t>(chunk.size());
    }
    analyzer.EndWindow(15 * kMinute);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ObserveColumns)->Unit(benchmark::kMillisecond);

void BM_MiniSimWindowAlc(benchmark::State& state) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 9);
  const auto grid = UniformSizeGrid(50'000'000, 5'000'000'000, 48);
  AlcBank bank(grid, /*osc_capacity=*/grid.back(), 0.05, 7, &gen, 15);
  for (auto _ : state) {
    bank.ProcessColumns(MiniSimWindowStream(), 0, MiniSimWindowStream().size());
    bank.EndWindow();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(MiniSimWindowStream().size()));
}
BENCHMARK(BM_MiniSimWindowAlc)->Unit(benchmark::kMillisecond);

// --- Full-engine replay (hash once at ingest, prehashed all the way down) ---
//
// One iteration = a complete small-workload simulation: trace replay
// through cluster routing, OSC, TTL shadow, and the per-window analyzer.
// The trace is generated once; both engines consume the identical stream.

const Trace& EngineReplayTrace() {
  static const Trace* trace = [] {
    WorkloadProfile p;
    p.name = "bm_engine";
    p.seed = 77;
    p.duration = 2 * kDay;
    p.dataset_bytes = 200ull * 1000 * 1000;
    p.mean_object_bytes = 500ull * 1000;
    p.get_bytes = 1200ull * 1000 * 1000;
    p.zipf_alpha = 0.8;
    return new Trace(SplitObjects(GenerateTrace(p), p.max_object_bytes));
  }();
  return *trace;
}

EngineConfig EngineReplayConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 24;
  return cfg;
}

void BM_EngineReplayMacaron(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayMacaron)->Unit(benchmark::kMillisecond);

void BM_EngineReplayCluster(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaron);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayCluster)->Unit(benchmark::kMillisecond);

void BM_EngineReplayEvent(benchmark::State& state) {
  const EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EventEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_EngineReplayEvent)->Unit(benchmark::kMillisecond);

// The sharded serving engine at 8 shards, swept over worker-thread count
// (Arg = shard_threads). Thread count never changes any output bit, so the
// spread across args is pure execution cost: threads=1 measures the sharding
// overhead vs BM_EngineReplay*, higher args measure parallel speedup on
// machines that have the cores for it.
void BM_ShardedReplayMacaron(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayMacaron)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ShardedReplayCluster(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaron);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayCluster)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_ShardedReplayEvent(benchmark::State& state) {
  EngineConfig cfg = EngineReplayConfig(Approach::kMacaronNoCluster);
  cfg.num_shards = 8;
  cfg.shard_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EventEngine(cfg).Run(EngineReplayTrace()).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_ShardedReplayEvent)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Out-of-core trace pipeline ---
//
// The BM_TraceStream* group measures the streaming delivery path on the
// same workload as BM_EngineReplay*: columnar encode/decode cost in
// isolation (round trip, cursor drain) and what decode-ahead overlap buys
// when an engine is on the other end of the cursor.

// The engine-replay trace, captured once as an MCTC file in TempDir-less
// /tmp (benchmarks run outside gtest). The file outlives the process; its
// size is a few MB.
const std::string& EngineReplayColumnarPath() {
  static const std::string* path = [] {
    auto* p = new std::string("/tmp/macaron-bm-engine.mctc");
    std::string error;
    if (!WriteTraceColumnar(EngineReplayTrace(), *p, &error)) {
      std::fprintf(stderr, "bench_micro: columnar capture failed: %s\n", error.c_str());
      std::abort();
    }
    return p;
  }();
  return *path;
}

// One iteration = write the trace as MCTC and materialize it back:
// per-column delta+varint encode, per-chunk FNV, footer build, then the
// full decode + verify path. Items = requests through the codec (both
// directions count once).
void BM_ColumnarRoundTrip(benchmark::State& state) {
  const Trace& t = EngineReplayTrace();
  const std::string path = "/tmp/macaron-bm-roundtrip.mctc";
  for (auto _ : state) {
    std::string error;
    if (!WriteTraceColumnar(t, path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    Trace back;
    if (!ReadTraceColumnar(path, &back, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    benchmark::DoNotOptimize(back.requests.data());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(t.requests.size()));
}
BENCHMARK(BM_ColumnarRoundTrip)->Unit(benchmark::kMillisecond);

// Pure decode throughput: drain a source through the ChunkCursor with no
// engine attached (decode-ahead off — this measures the decode itself, not
// the overlap). Arg 0 reads the MCTC file (varint decode + checksum +
// prehash); Arg 1 generates the synthetic stream (sampler + lognormal +
// prehash). Items = requests decoded.
void BM_TraceStreamDecode(benchmark::State& state) {
  const bool synthetic = state.range(0) != 0;
  std::unique_ptr<RequestSource> source;
  if (synthetic) {
    StreamProfile p;
    p.name = "bm_stream";
    p.num_requests = EngineReplayTrace().requests.size();
    p.population = 1ull << 16;
    p.zipf_alpha = 0.8;
    p.duration = 2 * kDay;
    p.mean_object_bytes = 500ull * 1000;
    p.seed = 21;
    source = std::make_unique<SyntheticStreamSource>(p);
  } else {
    std::string error;
    source = ColumnarTraceSource::Open(EngineReplayColumnarPath(), &error);
    if (!source) {
      state.SkipWithError(error.c_str());
      return;
    }
  }
  int64_t requests = 0;
  for (auto _ : state) {
    ChunkCursor cursor(*source, /*decode_ahead=*/false);
    uint64_t sum = 0;
    while (const ReplayBatch* chunk = cursor.Next()) {
      requests += static_cast<int64_t>(chunk->size());
      sum += chunk->hashes.empty() ? 0 : chunk->hashes.back();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(requests);
  state.SetLabel(synthetic ? "synthetic" : "columnar_file");
}
BENCHMARK(BM_TraceStreamDecode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// End-to-end streamed replay from the columnar file, decode-ahead off
// (Arg 0) vs on (Arg 1). The spread is what overlapping chunk N+1's decode
// with chunk N's replay buys; compare against BM_EngineReplayMacaron for
// the cost of streaming delivery vs the materialized `const Trace&` path
// (same workload, same config).
void BM_TraceStreamReplayOverlap(benchmark::State& state) {
  const EngineConfig base = EngineReplayConfig(Approach::kMacaronNoCluster);
  std::string error;
  const auto source = ColumnarTraceSource::Open(EngineReplayColumnarPath(), &error);
  if (!source) {
    state.SkipWithError(error.c_str());
    return;
  }
  EngineConfig cfg = base;
  cfg.stream_decode_ahead = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayEngine(cfg).Run(*source).costs.Total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(EngineReplayTrace().requests.size()));
}
BENCHMARK(BM_TraceStreamReplayOverlap)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The full-trace stats pass (ComputeStats, i.e. TraceStatsBuilder) that every
// direct in-memory engine run and every MCTC write repeats before replay (a
// sweep runs it once per trace for all that trace's engine jobs). The
// input mirrors the perfbench event-cluster mix at a third of its length:
// 2^20 requests over 2^18 objects, Zipf alpha 0.9, 25% PUT and 5% DELETE,
// lognormal sizes (so about as many distinct sizes as objects). It is
// materialized from a seeded stream once, outside the timed loop. Items =
// requests.
void BM_ComputeStats(benchmark::State& state) {
  static const Trace* trace = [] {
    StreamProfile p;
    p.name = "bm_stats";
    p.num_requests = 1ull << 20;
    p.population = 1ull << 18;
    p.zipf_alpha = 0.9;
    p.duration = 3 * kDay;
    p.put_fraction = 0.25;
    p.delete_fraction = 0.05;
    p.seed = 13;
    SyntheticStreamSource source(p);
    auto* t = new Trace;
    t->name = p.name;
    t->requests.reserve(p.num_requests);
    ReplayBatch batch;
    while (source.FillNext(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        t->requests.push_back(batch.RowAt(i));
      }
    }
    return t;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeStats(*trace).zipf_alpha);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(trace->requests.size()));
}
BENCHMARK(BM_ComputeStats)->Unit(benchmark::kMillisecond);

// One route on a ring of Arg() nodes at 64 virtual replicas: /4 is the size
// of stream-replay's shard ring, /16 the ring this row always timed, and
// /256 event-cluster's 256-node DRAM cluster (16,384 entries). Keys are
// consecutive ids, so their hashes land all over the ring.
void BM_HashRingRoute(benchmark::State& state) {
  HashRing ring;
  for (uint32_t n = 1; n <= static_cast<uint32_t>(state.range(0)); ++n) {
    ring.AddNode(n);
  }
  ObjectId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Route(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRingRoute)->Arg(4)->Arg(16)->Arg(256);

// A DRAM cluster scaled from 0 to 256 nodes and back to 0, the largest
// membership change event-cluster's controller makes: 256 node launches and
// 256 terminations per iteration (the items), each with its ring entries.
void BM_ClusterResize(benchmark::State& state) {
  CacheCluster cluster(26ull * 1000 * 1000 * 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Resize(256).size());
    cluster.Resize(0);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ClusterResize)->Unit(benchmark::kMillisecond);

void BM_OscAdmitEvict(benchmark::State& state) {
  PackingConfig cfg;
  ObjectStorageCache osc(cfg);
  Rng rng(5);
  ZipfSampler zipf(200000, 0.5);
  uint64_t i = 0;
  for (auto _ : state) {
    osc.Admit(zipf.Sample(rng), 100000);
    if (++i % 4096 == 0) {
      osc.EvictToCapacity(2'000'000'000);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OscAdmitEvict);

// OSC serving as the engines drive it, the stage BM_OscAdmitEvict leaves
// out: a prehashed Zipf(0.6) GET stream over 2^20 objects with lognormal
// sizes (1 MiB mean, as in perfbench's stream-replay), LookupPrehashed then
// AdmitPrehashed on a miss, 10% PUTs, and once per 64 Ki requests the window
// boundary's FlushOpenBlock and EvictToCapacity to half the dataset (whose
// GC pass rewrites half-dead blocks). The replacement order's index, slab
// and object rows then span tens of MiB, far beyond L2. The stream is drawn
// once and the cache warmed by one pass over it, both outside the timing;
// the timed loop keeps cycling the stream and prefetches eight requests
// ahead, as the engines' shard loops do.
struct OscServeStream {
  static constexpr size_t kObjects = size_t{1} << 20;
  static constexpr size_t kRequests = size_t{1} << 21;
  std::vector<ObjectId> ids;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> is_put;
  std::vector<uint64_t> object_bytes;  // by id
  uint64_t dataset_bytes = 0;
};

const OscServeStream& ServeStream() {
  static const OscServeStream stream = [] {
    OscServeStream s;
    Rng rng(29);
    s.object_bytes.resize(OscServeStream::kObjects);
    for (uint64_t& b : s.object_bytes) {
      // mu = ln(1 MiB) - sigma^2 / 2 gives a 1 MiB mean.
      b = 1 + static_cast<uint64_t>(rng.NextLogNormal(13.86294 - 0.5, 1.0));
      s.dataset_bytes += b;
    }
    ZipfSampler zipf(OscServeStream::kObjects, 0.6);
    s.ids.resize(OscServeStream::kRequests);
    s.hashes.resize(OscServeStream::kRequests);
    s.is_put.resize(OscServeStream::kRequests);
    for (size_t k = 0; k < OscServeStream::kRequests; ++k) {
      s.ids[k] = zipf.Sample(rng);
      s.hashes[k] = Mix64(s.ids[k]);
      s.is_put[k] = rng.NextBounded(10) == 0 ? 1 : 0;
    }
    return s;
  }();
  return stream;
}

void BM_OscServe(benchmark::State& state) {
  constexpr size_t kWindow = size_t{1} << 16;
  constexpr size_t kAhead = 8;
  const OscServeStream& s = ServeStream();
  const uint64_t target = s.dataset_bytes / 2;
  ObjectStorageCache osc(PackingConfig{});
  uint64_t hits = 0;
  uint64_t gets = 0;
  size_t i = 0;
  const auto serve = [&](size_t k) {
    const ObjectId id = s.ids[k];
    const uint64_t h = s.hashes[k];
    if (s.is_put[k] != 0) {
      osc.AdmitPrehashed(id, h, s.object_bytes[id]);
    } else if (osc.LookupPrehashed(id, h)) {
      ++hits;
    } else {
      osc.AdmitPrehashed(id, h, s.object_bytes[id]);
    }
    gets += s.is_put[k] == 0 ? 1 : 0;
    if (++i % kWindow == 0) {
      osc.FlushOpenBlock();
      osc.EvictToCapacity(target);
    }
  };
  for (size_t k = 0; k < OscServeStream::kRequests; ++k) {
    serve(k);  // warm-up pass
  }
  hits = 0;
  gets = 0;
  size_t k = 0;
  for (auto _ : state) {
    osc.PrefetchPrehashed(s.hashes[(k + kAhead) % OscServeStream::kRequests]);
    serve(k);
    k = (k + 1) % OscServeStream::kRequests;
  }
  state.counters["hit_ratio"] = gets == 0 ? 0.0 : static_cast<double>(hits) / gets;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OscServe);

void BM_LatencySample(benchmark::State& state) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 400, 6);
  Rng rng(7);
  uint64_t size = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.SampleMs(DataSource::kRemoteLake, size, rng));
    size = (size * 7) % 4'000'000 + 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencySample);

// --- Sweep scheduler building blocks ---

void BM_SweepFingerprintConfig(benchmark::State& state) {
  EngineConfig cfg;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;  // defeat caching; real sweeps fingerprint varied configs
    benchmark::DoNotOptimize(sweep::FingerprintEngineConfig(cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepFingerprintConfig);

void BM_SweepFingerprintTrace(benchmark::State& state) {
  Trace t;
  t.name = "bm";
  for (int i = 0; i < 100000; ++i) {
    t.requests.push_back(Request{i * 100, static_cast<ObjectId>(i * 31), 4096, Op::kGet});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep::FingerprintTraceContent(t));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(t.requests.size()));
}
BENCHMARK(BM_SweepFingerprintTrace);

void BM_SweepResultStoreRoundTrip(benchmark::State& state) {
  const std::string dir = "/tmp/macaron-bm-store";
  sweep::ResultStore store(dir);
  RunResult r;
  r.trace_name = "bm";
  r.approach_name = "macaron";
  for (int i = 0; i < 1000; ++i) {
    r.latency_ms.Add(static_cast<double>(i % 97));
    r.osc_capacity_timeline.emplace_back(i * 1000, 1000000 + i);
  }
  uint64_t key = 0;
  for (auto _ : state) {
    // Rotate through a bounded key set so the directory stays small.
    const std::string hex = sweep::Fingerprint{key % 256, ~(key % 256)}.Hex();
    ++key;
    store.Store(hex, r);
    RunResult back;
    benchmark::DoNotOptimize(store.Load(hex, &back));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepResultStoreRoundTrip)->Unit(benchmark::kMicrosecond);

// Dispatch overhead of the scheduler itself: tiny one-request jobs, unique
// seeds so nothing deduplicates. Measures submit + execute + collect, not
// simulation (the trace has one request).
void BM_SweepSchedulerDispatch(benchmark::State& state) {
  auto trace = std::make_shared<const Trace>([] {
    Trace t;
    t.name = "tiny";
    t.requests.push_back(Request{0, 1, 1000, Op::kGet});
    return t;
  }());
  const sweep::Fingerprint identity = sweep::FingerprintTraceContent(*trace);
  sweep::SweepScheduler::Options opt;
  opt.threads = static_cast<int>(state.range(0));
  sweep::SweepScheduler sched(std::move(opt));
  uint64_t seed = 0;
  for (auto _ : state) {
    sweep::SweepJobSpec spec;
    spec.trace = trace;
    spec.trace_name = trace->name;
    spec.trace_identity = identity;
    spec.config.approach = Approach::kRemote;
    spec.config.seed = ++seed;
    const size_t id = sched.Submit(std::move(spec));
    benchmark::DoNotOptimize(sched.Result(id).costs.Total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepSchedulerDispatch)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

// In-process dedup lookup cost: every submission after the first hits the
// fingerprint map instead of running anything.
void BM_SweepDedupLookup(benchmark::State& state) {
  auto trace = std::make_shared<const Trace>([] {
    Trace t;
    t.name = "tiny";
    t.requests.push_back(Request{0, 1, 1000, Op::kGet});
    return t;
  }());
  sweep::SweepScheduler::Options opt;
  opt.threads = 1;
  sweep::SweepScheduler sched(std::move(opt));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.trace_identity = sweep::FingerprintTraceContent(*trace);
  spec.config.approach = Approach::kRemote;
  sched.Submit(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.Submit(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepDedupLookup);

}  // namespace
}  // namespace macaron

// Like BENCHMARK_MAIN(), plus provenance in the report's custom context.
// A JSON report is written only when asked for with
// --benchmark_out=<file> (JSON is google-benchmark's default out format).
// No micro-benchmark baseline is tracked: the repository benchmark is
// BENCHMARK.json (perfbench/), and a micro comparison is made by running
// the same filter on both builds.
//
// The report's "library_build_type" describes the preinstalled
// google-benchmark library, NOT this binary — a Release build of ours still
// reports "debug" there. "macaron_build_type" in the custom context is the
// authoritative field; a non-optimized build additionally warns on stderr
// (numbers from it are meaningless).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("macaron_build_type",
                              macaron::bench::OptimizedBuild() ? "optimized" : "unoptimized");
  // The cache-core probe path this binary was compiled with (src/cache/
  // simd.h): recorded numbers must say which feature set produced them.
  benchmark::AddCustomContext("macaron_simd", macaron::SimdFeatureString());
  macaron::bench::WarnIfUnoptimizedBuild("bench_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
