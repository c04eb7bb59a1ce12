// Differential tests: the slab/flat-index cache core vs the seed's
// list+unordered_map reference implementations (tests/reference_caches.h).
//
// The flat core was required to be behavior-preserving, not just
// "approximately LRU": identical hit/miss results, identical
// eviction-callback sequences, identical iteration orders, identical byte
// accounting, under randomized Zipf-skewed Get/Put/Erase/Resize mixes.
// These tests replay the same operation stream against both implementations
// and compare after every operation (cheap O(1) state) and at checkpoints
// (full iteration order).
//
// A second group pins the allocation behavior the slab core exists for:
// allocated_nodes() stops growing once a cache — or a whole mini-cache
// bank — reaches its steady-state population, so windowed analysis does no
// per-request heap allocation.
//
// A third group pins MrcBank's one-pass LRU timeline to per-grid LruCache
// replays of the same sampled stream, window by window and bit for bit, and
// a fourth pins AlcBank's slot-row replay to per-grid LruCache +
// InflightTable replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/inflight.h"
#include "src/cache/lru_cache.h"
#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/cloudsim/latency.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/zipf.h"
#include "src/controller/analyzer.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/minisim/ttl_bank.h"
#include "src/trace/request.h"
#include "src/trace/request_source.h"
#include "src/trace/sampler.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"
#include "tests/feed_columns.h"
#include "tests/reference_caches.h"

namespace macaron {
namespace {

using EventLog = std::vector<std::pair<ObjectId, uint64_t>>;

// Stable per-object size in [64, 4159]; both implementations see the same
// stream, so any deterministic function works.
uint64_t SizeOfId(ObjectId id) { return 64 + (id * 2654435761u) % 4096; }

template <typename Cache>
EventLog EvictOrder(const Cache& c) {
  EventLog order;
  c.ForEachEvictOrder([&](ObjectId id, uint64_t size) {
    order.emplace_back(id, size);
    return true;
  });
  return order;
}

template <typename Cache>
EventLog HotOrder(const Cache& c) {
  EventLog order;
  c.ForEachHotOrder([&](ObjectId id, uint64_t size) {
    order.emplace_back(id, size);
    return true;
  });
  return order;
}

// Replays `ops` operations of a randomized Zipf mix against the flat and
// reference builds of `kind`, asserting identical observable behavior.
void RunPolicyDifferential(EvictionPolicyKind kind, uint64_t seed, uint64_t ops) {
  SCOPED_TRACE(EvictionPolicyName(kind));
  SCOPED_TRACE(seed);
  constexpr uint64_t kObjects = 3000;
  constexpr uint64_t kCapacity = 400'000;  // holds ~190 mean-size objects

  auto flat = MakeEvictionCache(kind, kCapacity);
  auto ref = MakeReferenceEvictionCache(kind, kCapacity);
  EventLog flat_evicted;
  EventLog ref_evicted;
  flat->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { flat_evicted.emplace_back(id, size); });
  ref->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { ref_evicted.emplace_back(id, size); });

  Rng rng(seed);
  ZipfSampler zipf(kObjects, 0.8);
  const uint64_t capacities[] = {kCapacity, kCapacity / 2, kCapacity * 3 / 2,
                                 kCapacity / 4};
  size_t resize_cursor = 0;

  for (uint64_t i = 0; i < ops; ++i) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t roll = rng.NextU64() % 100;
    if (roll < 60) {
      // GET with admit-on-miss, as the mini-cache banks replay it.
      const bool f = flat->Get(id);
      const bool r = ref->Get(id);
      ASSERT_EQ(f, r) << "Get(" << id << ") at op " << i;
      if (!f) {
        flat->Put(id, SizeOfId(id));
        ref->Put(id, SizeOfId(id));
      }
    } else if (roll < 80) {
      flat->Put(id, SizeOfId(id));
      ref->Put(id, SizeOfId(id));
    } else if (roll < 95) {
      const bool f = flat->Erase(id);
      const bool r = ref->Erase(id);
      ASSERT_EQ(f, r) << "Erase(" << id << ") at op " << i;
    } else {
      const uint64_t cap = capacities[resize_cursor++ % 4];
      flat->Resize(cap);
      ref->Resize(cap);
    }
    ASSERT_EQ(flat->used_bytes(), ref->used_bytes()) << "op " << i;
    ASSERT_EQ(flat->num_entries(), ref->num_entries()) << "op " << i;
    ASSERT_EQ(flat_evicted.size(), ref_evicted.size()) << "op " << i;
    if ((i & 0xfff) == 0xfff) {
      ASSERT_EQ(EvictOrder(*flat), EvictOrder(*ref)) << "op " << i;
      ASSERT_EQ(HotOrder(*flat), HotOrder(*ref)) << "op " << i;
    }
  }
  EXPECT_EQ(flat_evicted, ref_evicted);
  EXPECT_EQ(EvictOrder(*flat), EvictOrder(*ref));
  EXPECT_EQ(HotOrder(*flat), HotOrder(*ref));
}

TEST(CacheDifferentialTest, LruMatchesSeedReference) {
  RunPolicyDifferential(EvictionPolicyKind::kLru, 1, 60'000);
  RunPolicyDifferential(EvictionPolicyKind::kLru, 2, 60'000);
}

TEST(CacheDifferentialTest, FifoMatchesSeedReference) {
  RunPolicyDifferential(EvictionPolicyKind::kFifo, 3, 60'000);
  RunPolicyDifferential(EvictionPolicyKind::kFifo, 4, 60'000);
}

TEST(CacheDifferentialTest, SlruMatchesSeedReference) {
  RunPolicyDifferential(EvictionPolicyKind::kSlru, 5, 60'000);
  RunPolicyDifferential(EvictionPolicyKind::kSlru, 6, 60'000);
}

TEST(CacheDifferentialTest, S3FifoMatchesSeedReference) {
  RunPolicyDifferential(EvictionPolicyKind::kS3Fifo, 7, 60'000);
  RunPolicyDifferential(EvictionPolicyKind::kS3Fifo, 8, 60'000);
}

// LruCache used directly (not via the policy interface), with sizes that
// change on refresh — exercises the used_-adjustment and over-capacity
// paths of Put.
TEST(CacheDifferentialTest, LruCacheWithChangingSizes) {
  constexpr uint64_t kCapacity = 200'000;
  LruCache flat(kCapacity);
  RefLruCache ref(kCapacity);
  EventLog flat_evicted;
  EventLog ref_evicted;
  flat.set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { flat_evicted.emplace_back(id, size); });
  ref.set_evict_callback(
      [&](ObjectId id, uint64_t size) { ref_evicted.emplace_back(id, size); });

  Rng rng(42);
  ZipfSampler zipf(1500, 0.9);
  for (uint64_t i = 0; i < 80'000; ++i) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t roll = rng.NextU64() % 100;
    if (roll < 55) {
      ASSERT_EQ(flat.Get(id), ref.Get(id)) << "op " << i;
    } else if (roll < 85) {
      // Refresh with a new size each time (object overwritten).
      const uint64_t size = 64 + rng.NextU64() % 8192;
      flat.Put(id, size);
      ref.Put(id, size);
    } else if (roll < 95) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "op " << i;
    } else {
      const uint64_t cap = 50'000 + rng.NextU64() % 300'000;
      flat.Resize(cap);
      ref.Resize(cap);
      flat.Resize(kCapacity);
      ref.Resize(kCapacity);
    }
    ASSERT_EQ(flat.SizeOf(id), ref.SizeOf(id)) << "op " << i;
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "op " << i;
    ASSERT_EQ(flat.num_entries(), ref.num_entries()) << "op " << i;
  }
  EXPECT_EQ(flat_evicted, ref_evicted);

  EventLog flat_order;
  flat.ForEachEvictOrder([&](ObjectId id, uint64_t size) {
    flat_order.emplace_back(id, size);
    return true;
  });
  EventLog ref_order;
  ref.ForEachLruToMru([&](ObjectId id, uint64_t size) {
    ref_order.emplace_back(id, size);
    return true;
  });
  EXPECT_EQ(flat_order, ref_order);
}

TEST(CacheDifferentialTest, TtlCacheMatchesSeedReference) {
  constexpr SimDuration kTtl = 10'000;
  TtlCache flat(kTtl);
  RefTtlCache ref(kTtl);
  EventLog flat_evicted;
  EventLog ref_evicted;
  flat.set_evict_callback(
      [&](ObjectId id, uint64_t size) { flat_evicted.emplace_back(id, size); });
  ref.set_evict_callback(
      [&](ObjectId id, uint64_t size) { ref_evicted.emplace_back(id, size); });

  Rng rng(99);
  ZipfSampler zipf(800, 0.7);
  SimTime now = 0;
  for (uint64_t i = 0; i < 60'000; ++i) {
    now += rng.NextU64() % (kTtl / 16);
    const ObjectId id = zipf.Sample(rng);
    const uint64_t roll = rng.NextU64() % 100;
    if (roll < 50) {
      ASSERT_EQ(flat.Get(id, now), ref.Get(id, now)) << "op " << i;
    } else if (roll < 85) {
      flat.Put(id, SizeOfId(id), now);
      ref.Put(id, SizeOfId(id), now);
    } else if (roll < 95) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "op " << i;
    } else {
      const SimDuration ttl = 1000 + rng.NextU64() % (2 * kTtl);
      flat.SetTtl(ttl, now);
      ref.SetTtl(ttl, now);
      flat.SetTtl(kTtl, now);
      ref.SetTtl(kTtl, now);
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "op " << i;
    ASSERT_EQ(flat.num_entries(), ref.num_entries()) << "op " << i;
  }
  EXPECT_EQ(flat_evicted, ref_evicted);
}

std::vector<Request> ZipfWindow(uint64_t objects, uint64_t count, uint64_t seed) {
  std::vector<Request> reqs;
  Rng rng(seed);
  ZipfSampler zipf(objects, 0.8);
  reqs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    reqs.push_back({static_cast<SimTime>(i * 10), zipf.Sample(rng), 1000, Op::kGet});
  }
  return reqs;
}

// --- Hash-once pipeline (prehashed vs. plain-key paths) ---

// Drives one instance through the plain-key wrappers (the Mix64(id) domain
// the engines use) and a second instance exclusively through the prehashed
// entry points with a *salted* domain Mix64(id ^ salt) — the hash a bank's
// SpatialSampler supplies. The index hash picks table positions only, so
// every observable (hit results, eviction sequences, iteration orders, byte
// accounting) must be bit-identical across hash domains.
void RunHashDomainDifferential(EvictionPolicyKind kind, uint64_t salt, uint64_t ops) {
  SCOPED_TRACE(EvictionPolicyName(kind));
  SCOPED_TRACE(salt);
  constexpr uint64_t kObjects = 3000;
  constexpr uint64_t kCapacity = 400'000;

  auto plain = MakeEvictionCache(kind, kCapacity);
  auto salted = MakeEvictionCache(kind, kCapacity);
  EventLog plain_evicted;
  EventLog salted_evicted;
  plain->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { plain_evicted.emplace_back(id, size); });
  salted->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { salted_evicted.emplace_back(id, size); });

  Rng rng(salt * 2 + 1);
  ZipfSampler zipf(kObjects, 0.8);
  for (uint64_t i = 0; i < ops; ++i) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t h = Mix64(id ^ salt);
    const uint64_t roll = rng.NextU64() % 100;
    if (roll < 60) {
      const bool p = plain->Get(id);
      const bool s = salted->GetPrehashed(id, h);
      ASSERT_EQ(p, s) << "Get(" << id << ") at op " << i;
      if (!p) {
        plain->Put(id, SizeOfId(id));
        salted->PutPrehashed(id, h, SizeOfId(id));
      }
    } else if (roll < 80) {
      plain->Put(id, SizeOfId(id));
      salted->PutPrehashed(id, h, SizeOfId(id));
    } else {
      const bool p = plain->Erase(id);
      const bool s = salted->ErasePrehashed(id, h);
      ASSERT_EQ(p, s) << "Erase(" << id << ") at op " << i;
    }
    ASSERT_EQ(plain->used_bytes(), salted->used_bytes()) << "op " << i;
    ASSERT_EQ(plain->num_entries(), salted->num_entries()) << "op " << i;
    if ((i & 0xfff) == 0xfff) {
      ASSERT_EQ(EvictOrder(*plain), EvictOrder(*salted)) << "op " << i;
      ASSERT_EQ(HotOrder(*plain), HotOrder(*salted)) << "op " << i;
    }
  }
  EXPECT_EQ(plain_evicted, salted_evicted);
  EXPECT_EQ(EvictOrder(*plain), EvictOrder(*salted));
  EXPECT_EQ(HotOrder(*plain), HotOrder(*salted));
}

TEST(HashOnceDifferentialTest, SaltedDomainMatchesPlainKeys) {
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    RunHashDomainDifferential(kind, 0x9e3779b97f4a7c15ull, 40'000);
    RunHashDomainDifferential(kind, 71, 40'000);
  }
}

// Replays SoA batches (with the banks' salted hash column) through the
// policy-templated ReplayMiniSim kernel and compares against (a) a scalar
// replay through the plain-key wrappers on a second flat instance and (b)
// the seed reference implementation's replay. Miss stats and the final
// cache state must match bit-for-bit — this pins both the kernel's mini-sim
// semantics and its hash-domain independence.
void RunReplayKernelDifferential(EvictionPolicyKind kind, uint64_t seed) {
  SCOPED_TRACE(EvictionPolicyName(kind));
  SCOPED_TRACE(seed);
  constexpr uint64_t kObjects = 2000;
  constexpr uint64_t kCapacity = 300'000;
  constexpr size_t kBatchLen = 512;
  constexpr int kBatches = 40;
  const uint64_t salt = Mix64(seed ^ 0xbead);

  auto kernel = MakeEvictionCache(kind, kCapacity);
  auto scalar = MakeEvictionCache(kind, kCapacity);
  auto ref = MakeReferenceEvictionCache(kind, kCapacity);
  EventLog kernel_evicted;
  EventLog scalar_evicted;
  EventLog ref_evicted;
  kernel->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { kernel_evicted.emplace_back(id, size); });
  scalar->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { scalar_evicted.emplace_back(id, size); });
  ref->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { ref_evicted.emplace_back(id, size); });

  Rng rng(seed);
  ZipfSampler zipf(kObjects, 0.8);
  SimTime now = 0;
  for (int b = 0; b < kBatches; ++b) {
    ReplayBatch batch;
    batch.Reserve(kBatchLen);
    for (size_t k = 0; k < kBatchLen; ++k) {
      now += 10;
      Request r;
      r.time = now;
      r.id = zipf.Sample(rng);
      r.size = SizeOfId(r.id);
      const uint64_t roll = rng.NextU64() % 100;
      r.op = roll < 70 ? Op::kGet : roll < 90 ? Op::kPut : Op::kDelete;
      batch.PushBack(r, Mix64(r.id ^ salt));
    }

    const EvictionCache::MiniSimStats ks = kernel->ReplayMiniSim(batch);
    const EvictionCache::MiniSimStats rs = ref->ReplayMiniSim(batch);
    EvictionCache::MiniSimStats ss;
    for (size_t k = 0; k < batch.size(); ++k) {
      const ObjectId id = batch.ids[k];
      switch (batch.ops[k]) {
        case Op::kGet:
          if (!scalar->Get(id)) {
            ++ss.misses;
            ss.missed_bytes += batch.sizes[k];
            scalar->Put(id, batch.sizes[k]);
          }
          break;
        case Op::kPut:
          scalar->Put(id, batch.sizes[k]);
          break;
        case Op::kDelete:
          scalar->Erase(id);
          break;
      }
    }

    ASSERT_EQ(ks.misses, ss.misses) << "batch " << b;
    ASSERT_EQ(ks.missed_bytes, ss.missed_bytes) << "batch " << b;
    ASSERT_EQ(ks.misses, rs.misses) << "batch " << b;
    ASSERT_EQ(ks.missed_bytes, rs.missed_bytes) << "batch " << b;
    ASSERT_EQ(kernel->used_bytes(), scalar->used_bytes()) << "batch " << b;
    ASSERT_EQ(kernel->used_bytes(), ref->used_bytes()) << "batch " << b;
    ASSERT_EQ(kernel->num_entries(), scalar->num_entries()) << "batch " << b;
    ASSERT_EQ(EvictOrder(*kernel), EvictOrder(*scalar)) << "batch " << b;
    ASSERT_EQ(EvictOrder(*kernel), EvictOrder(*ref)) << "batch " << b;
  }
  EXPECT_EQ(kernel_evicted, scalar_evicted);
  EXPECT_EQ(kernel_evicted, ref_evicted);
  EXPECT_EQ(HotOrder(*kernel), HotOrder(*scalar));
  EXPECT_EQ(HotOrder(*kernel), HotOrder(*ref));
}

TEST(HashOnceDifferentialTest, ReplayKernelMatchesScalarAndReference) {
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    RunReplayKernelDifferential(kind, 1234);
    RunReplayKernelDifferential(kind, 5678);
  }
}

// At full sampling (ratio 1.0) a bank admits every request no matter what
// its salt hashes to, so two banks that differ only in salt feed identical
// request streams — in different hash domains — to their mini-caches. The
// curves must be bit-identical: the admission hash doubles as the index
// hash, and index hashes must never leak into results.
TEST(HashOnceDifferentialTest, MrcBankCurvesIndependentOfSalt) {
  const auto grid = UniformSizeGrid(50'000, 2'000'000, 8);
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    MrcBank a(grid, 1.0, /*salt=*/0, kind);
    MrcBank b(grid, 1.0, /*salt=*/0xdecafbadull, kind);
    for (int w = 0; w < 3; ++w) {
      const auto reqs = ZipfWindow(3000, 20'000, 31 + w);
      FeedColumns(a, reqs);
      FeedColumns(b, reqs);
      const WindowCurves ca = a.EndWindow();
      const WindowCurves cb = b.EndWindow();
      EXPECT_EQ(ca.mrc.ys(), cb.mrc.ys()) << "window " << w;
      EXPECT_EQ(ca.bmc.ys(), cb.bmc.ys()) << "window " << w;
      EXPECT_EQ(ca.sampled_gets, cb.sampled_gets) << "window " << w;
    }
  }
}

TEST(HashOnceDifferentialTest, TtlBankCurvesIndependentOfSalt) {
  TtlBank a({50'000, 200'000, 800'000}, 1.0, /*salt=*/0);
  TtlBank b({50'000, 200'000, 800'000}, 1.0, /*salt=*/0xfeedf00dull);
  for (int w = 0; w < 3; ++w) {
    const auto reqs = ZipfWindow(2000, 15'000, 47 + w);
    FeedColumns(a, reqs);
    FeedColumns(b, reqs);
    const TtlWindowCurves ca = a.EndWindow(300'000);
    const TtlWindowCurves cb = b.EndWindow(300'000);
    EXPECT_EQ(ca.mrc.ys(), cb.mrc.ys()) << "window " << w;
    EXPECT_EQ(ca.bmc.ys(), cb.bmc.ys()) << "window " << w;
    EXPECT_EQ(ca.capacity.ys(), cb.capacity.ys()) << "window " << w;
  }
}

// --- SIMD / scalar probe-path independence ---
//
// The cache core's group-probing build toggle (MACARON_SIMD, src/cache/
// simd.h) must never affect results. These tests pin the bank curves to a
// probe-path-independent golden: a hand replay of the same admitted stream
// through the seed reference implementations (std::list +
// std::unordered_map — no FlatIndex, no probing at all). The identical
// assertions run in the default (SIMD) build and in the -DMACARON_SIMD=OFF
// scalar ctest lane, so both probe paths are pinned to the same bytes —
// i.e. SIMD bank curves == scalar bank curves, byte for byte. (FlatIndex's
// own SIMD-vs-scalar equivalence is fuzzed directly, in either build, in
// flat_index_test.cc via the *Scalar reference entry points.)

TEST(SimdScalarDifferentialTest, MrcBankCurvesMatchProbeFreeReference) {
  const auto grid = UniformSizeGrid(50'000, 2'000'000, 8);
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    // Full sampling: every request is admitted, mini capacities equal the
    // grid, and EndWindow's realized admission rate is exactly 1.
    MrcBank bank(grid, /*ratio=*/1.0, /*salt=*/0xabadcafeull, kind);
    std::vector<std::unique_ptr<EvictionCache>> refs;
    for (const uint64_t capacity : grid) {
      refs.push_back(MakeReferenceEvictionCache(kind, capacity));
    }
    for (int w = 0; w < 3; ++w) {
      const auto reqs = ZipfWindow(3000, 20'000, 131 + w);
      std::vector<uint64_t> misses(grid.size(), 0);
      std::vector<uint64_t> missed_bytes(grid.size(), 0);
      FeedColumns(bank, reqs);
      for (const Request& r : reqs) {
        for (size_t i = 0; i < grid.size(); ++i) {
          if (!refs[i]->Get(r.id)) {
            ++misses[i];
            missed_bytes[i] += r.size;
            refs[i]->Put(r.id, r.size);  // mini-sim semantics: admit on miss
          }
        }
      }
      const WindowCurves c = bank.EndWindow();
      ASSERT_EQ(c.sampled_gets, reqs.size()) << "window " << w;
      for (size_t i = 0; i < grid.size(); ++i) {
        const double want_mr = std::min(
            1.0, static_cast<double>(misses[i]) / static_cast<double>(reqs.size()));
        EXPECT_EQ(c.mrc.ys()[i], want_mr) << "window " << w << " grid " << i;
        EXPECT_EQ(c.bmc.ys()[i], static_cast<double>(missed_bytes[i]))
            << "window " << w << " grid " << i;
      }
    }
  }
}

TEST(SimdScalarDifferentialTest, TtlBankCurvesMatchProbeFreeReference) {
  const std::vector<SimDuration> grid = {50'000, 200'000, 800'000};
  constexpr SimDuration kWindow = 300'000;
  TtlBank bank(grid, /*ratio=*/1.0, /*salt=*/0xabadd00dull);
  // Per-TTL mirror of TtlBank::Entry, replaying through the seed reference
  // cache with the same Advance arithmetic (expire at the boundary, then
  // integrate resident bytes) in the same per-request order, so the
  // capacity curve's floating-point accumulation matches bit for bit.
  struct RefEntry {
    RefTtlCache cache;
    uint64_t misses = 0;
    uint64_t missed_bytes = 0;
    double byte_time = 0.0;
    SimTime last_update = 0;
  };
  std::vector<RefEntry> refs;
  for (const SimDuration ttl : grid) {
    refs.emplace_back(RefEntry{RefTtlCache(ttl), 0, 0, 0.0, 0});
  }
  const auto advance = [](RefEntry& e, SimTime now) {
    if (now > e.last_update) {
      e.cache.Expire(now);
      e.byte_time += static_cast<double>(e.cache.used_bytes()) *
                     static_cast<double>(now - e.last_update);
      e.last_update = now;
    }
  };
  SimTime window_start = 0;
  for (int w = 0; w < 3; ++w) {
    const auto reqs = ZipfWindow(2000, 15'000, 247 + w);
    FeedColumns(bank, reqs);
    for (const Request& r : reqs) {
      for (RefEntry& e : refs) {
        advance(e, r.time);
        if (!e.cache.Get(r.id, r.time)) {
          ++e.misses;
          e.missed_bytes += r.size;
          e.cache.Put(r.id, r.size, r.time);
        }
      }
    }
    const TtlWindowCurves c = bank.EndWindow(kWindow);
    const SimTime window_end = window_start + kWindow;
    for (size_t i = 0; i < grid.size(); ++i) {
      RefEntry& e = refs[i];
      advance(e, window_end);
      const double want_mr = std::min(
          1.0, static_cast<double>(e.misses) / static_cast<double>(reqs.size()));
      EXPECT_EQ(c.mrc.ys()[i], want_mr) << "window " << w << " grid " << i;
      EXPECT_EQ(c.bmc.ys()[i], static_cast<double>(e.missed_bytes))
          << "window " << w << " grid " << i;
      EXPECT_EQ(c.capacity.ys()[i], e.byte_time / static_cast<double>(kWindow))
          << "window " << w << " grid " << i;
      e.misses = 0;
      e.missed_bytes = 0;
      e.byte_time = 0.0;
    }
    window_start = window_end;
  }
}

// --- Slab reuse (the allocation-freedom the core exists for) ---

TEST(SlabReuseTest, LruCacheChurnAllocatesOnlyPeakPopulation) {
  LruCache c(1'000'000'000);
  for (ObjectId id = 0; id < 1000; ++id) {
    c.Put(id, 100);
  }
  const size_t after_fill = c.allocated_nodes();
  EXPECT_EQ(after_fill, 1000u);
  for (int round = 0; round < 5; ++round) {
    for (ObjectId id = 0; id < 1000; ++id) {
      c.Erase(id);
    }
    EXPECT_EQ(c.num_entries(), 0u);
    for (ObjectId id = 0; id < 1000; ++id) {
      c.Put(id, 100);
    }
  }
  // Freed nodes were reused; churn allocated nothing new.
  EXPECT_EQ(c.allocated_nodes(), after_fill);
}

TEST(SlabReuseTest, EvictionChurnBoundedByResidentSet) {
  LruCache c(10'000);  // holds 100 objects of size 100
  for (ObjectId id = 0; id < 100'000; ++id) {
    c.Put(id, 100);  // each insert evicts the oldest
  }
  // 100k inserts, but only ~resident-set-many slab nodes ever existed.
  EXPECT_LE(c.allocated_nodes(), c.num_entries() + 1);
}

// Replays the same one-window trace repeatedly; after the caches reach
// steady state, later windows must not allocate.
template <typename Bank>
void ExpectSteadyStateAllocations(Bank& bank, const std::vector<Request>& window,
                                  const std::function<void()>& end_window) {
  for (int w = 0; w < 2; ++w) {
    FeedColumns(bank, window);
    end_window();
  }
  const size_t steady = bank.allocated_nodes();
  EXPECT_GT(steady, 0u);
  for (int w = 0; w < 3; ++w) {
    FeedColumns(bank, window);
    end_window();
    EXPECT_EQ(bank.allocated_nodes(), steady) << "window " << w;
  }
}

TEST(SlabReuseTest, MrcBankWindowsReuseSlabs) {
  MrcBank bank(UniformSizeGrid(50'000, 2'000'000, 8), 1.0, 0);
  ExpectSteadyStateAllocations(bank, ZipfWindow(4000, 30'000, 17),
                               [&] { bank.EndWindow(); });
}

TEST(SlabReuseTest, TtlBankWindowsReuseSlabs) {
  TtlBank bank({50'000, 200'000}, 1.0, 0);
  const auto window = ZipfWindow(2000, 20'000, 18);
  SimTime end = 0;
  ExpectSteadyStateAllocations(bank, window, [&] {
    end += 300'000;
    bank.EndWindow(300'000);
  });
}

TEST(SlabReuseTest, AlcBankWindowsReuseSlabs) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 1);
  AlcBank bank(UniformSizeGrid(100'000, 1'000'000, 5), /*osc=*/2'000'000, 1.0,
               0, &gen, 19);
  ExpectSteadyStateAllocations(bank, ZipfWindow(3000, 25'000, 20),
                               [&] { bank.EndWindow(); });
}

// --- Chunking invariance of the one observe path ---
//
// The banks and the analyzer take the stream only as chunk column ranges
// (ProcessColumns). Their pipeline rehashes the id column into the bank's
// salted admission domain, compacts survivors branch-free and appends them
// in slices bounded by the batch's remaining room, so batches close at the
// same stream positions however the stream is chunked. Each test feeds one
// stream three ways (see BankFeed) and requires bit-identical windows,
// including AlcBank, whose latency draws happen batch by batch when a
// batch is prepared and must come out in stream order under every
// chunking.

// Mixed GET/PUT/DELETE stream with varied sizes (deletes and puts exercise
// the op-column folds; varied sizes exercise the byte sums).
std::vector<Request> MixedWindow(uint64_t objects, uint64_t count, uint64_t seed) {
  std::vector<Request> reqs;
  Rng rng(seed);
  ZipfSampler zipf(objects, 0.8);
  reqs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const ObjectId id = zipf.Sample(rng);
    Op op = Op::kGet;
    if (i % 16 == 7) {
      op = Op::kPut;
    } else if (i % 16 == 13) {
      op = Op::kDelete;
    }
    reqs.push_back({static_cast<SimTime>(i * 10), id, SizeOfId(id), op});
  }
  return reqs;
}

constexpr size_t kOddChunk = 509;

// The three ways a test feeds one stream to a bank: 1-row chunks (what a
// per-row observe path would do), 509-row chunks (segment boundaries never
// align with the 4096-row batch), and each window as one chunk with replay
// submitted asynchronously to a 3-worker pool.
enum class BankFeed { kRows, kColumns, kAsyncWhole };

constexpr BankFeed kAllFeeds[] = {BankFeed::kRows, BankFeed::kColumns, BankFeed::kAsyncWhole};

const char* BankFeedName(BankFeed feed) {
  switch (feed) {
    case BankFeed::kRows:
      return "1-row chunks";
    case BankFeed::kColumns:
      return "509-row chunks";
    case BankFeed::kAsyncWhole:
      return "whole windows, async";
  }
  return "?";
}

size_t FeedChunkRows(BankFeed feed) {
  switch (feed) {
    case BankFeed::kRows:
      return 1;
    case BankFeed::kColumns:
      return kOddChunk;
    case BankFeed::kAsyncWhole:
      break;
  }
  return SIZE_MAX;
}

// Wires `sink` (a bank or an analyzer) for `feed`: async replay on `pool`
// for kAsyncWhole, inline replay otherwise.
template <typename Sink>
void WireFeed(Sink& sink, BankFeed feed, ThreadPool& pool) {
  if (feed == BankFeed::kAsyncWhole) {
    sink.SetExecution(&pool, /*async=*/true);
  }
}

void ExpectCurvesEqual(const Curve& got, const Curve& want) {
  EXPECT_EQ(got.xs(), want.xs());
  EXPECT_EQ(got.ys(), want.ys());
}

TEST(ColumnarObserveDifferentialTest, MrcBankChunkingInvariant) {
  const auto grid = UniformSizeGrid(50'000, 2'000'000, 8);
  ThreadPool pool(3);
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kS3Fifo}) {
    SCOPED_TRACE(EvictionPolicyName(kind));
    std::vector<std::unique_ptr<MrcBank>> banks;
    for (const BankFeed feed : kAllFeeds) {
      banks.push_back(std::make_unique<MrcBank>(grid, 0.5, /*salt=*/29, kind));
      WireFeed(*banks.back(), feed, pool);
    }
    for (int w = 0; w < 3; ++w) {
      SCOPED_TRACE(w);
      const auto reqs = MixedWindow(3000, 20'000, 61 + w);
      std::vector<WindowCurves> got;
      for (size_t f = 0; f < banks.size(); ++f) {
        FeedColumns(*banks[f], reqs, FeedChunkRows(kAllFeeds[f]));
        got.push_back(banks[f]->EndWindow());
      }
      for (size_t f = 1; f < got.size(); ++f) {
        SCOPED_TRACE(BankFeedName(kAllFeeds[f]));
        ExpectCurvesEqual(got[f].mrc, got[0].mrc);
        ExpectCurvesEqual(got[f].bmc, got[0].bmc);
        EXPECT_EQ(got[f].sampled_gets, got[0].sampled_gets);
        EXPECT_EQ(got[f].window_requests, got[0].window_requests);
      }
    }
  }
}

TEST(ColumnarObserveDifferentialTest, TtlBankChunkingInvariant) {
  ThreadPool pool(3);
  std::vector<std::unique_ptr<TtlBank>> banks;
  for (const BankFeed feed : kAllFeeds) {
    banks.push_back(std::make_unique<TtlBank>(std::vector<SimDuration>{50'000, 200'000, 800'000},
                                              0.5, /*salt=*/43));
    WireFeed(*banks.back(), feed, pool);
  }
  for (int w = 0; w < 3; ++w) {
    SCOPED_TRACE(w);
    const auto reqs = MixedWindow(2000, 15'000, 67 + w);
    std::vector<TtlWindowCurves> got;
    for (size_t f = 0; f < banks.size(); ++f) {
      FeedColumns(*banks[f], reqs, FeedChunkRows(kAllFeeds[f]));
      got.push_back(banks[f]->EndWindow(300'000));
    }
    for (size_t f = 1; f < got.size(); ++f) {
      SCOPED_TRACE(BankFeedName(kAllFeeds[f]));
      ExpectCurvesEqual(got[f].mrc, got[0].mrc);
      ExpectCurvesEqual(got[f].bmc, got[0].bmc);
      ExpectCurvesEqual(got[f].capacity, got[0].capacity);
      EXPECT_EQ(got[f].sampled_gets, got[0].sampled_gets);
      EXPECT_EQ(got[f].window_requests, got[0].window_requests);
    }
  }
}

void ExpectAlcWindowsEqual(const AlcWindow& got, const AlcWindow& want) {
  EXPECT_EQ(got.sampled_gets, want.sampled_gets);
  ExpectCurvesEqual(got.alc, want.alc);  // exact: same additions, same order
  ASSERT_EQ(got.level_counts.size(), want.level_counts.size());
  for (size_t i = 0; i < got.level_counts.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.level_counts[i].cluster_hits, want.level_counts[i].cluster_hits);
    EXPECT_EQ(got.level_counts[i].osc_hits, want.level_counts[i].osc_hits);
    EXPECT_EQ(got.level_counts[i].remote_misses, want.level_counts[i].remote_misses);
    EXPECT_EQ(got.level_counts[i].delayed_hits, want.level_counts[i].delayed_hits);
  }
}

TEST(ColumnarObserveDifferentialTest, AlcBankChunkingInvariant) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 3);
  const auto grid = UniformSizeGrid(100'000, 1'000'000, 6);
  ThreadPool pool(3);
  std::vector<std::unique_ptr<AlcBank>> banks;
  for (const BankFeed feed : kAllFeeds) {
    banks.push_back(
        std::make_unique<AlcBank>(grid, /*osc=*/2'000'000, 0.5, /*salt=*/53, &gen, 91));
    WireFeed(*banks.back(), feed, pool);
  }
  for (int w = 0; w < 3; ++w) {
    SCOPED_TRACE(w);
    const auto reqs = MixedWindow(3000, 20'000, 71 + w);
    std::vector<AlcWindow> got;
    for (size_t f = 0; f < banks.size(); ++f) {
      FeedColumns(*banks[f], reqs, FeedChunkRows(kAllFeeds[f]));
      if (w == 1) {
        // Mid-stream reconfiguration drains every bank at the same point.
        banks[f]->SetOscCapacity(1'000'000);
      }
      got.push_back(banks[f]->EndWindow());
    }
    for (size_t f = 1; f < got.size(); ++f) {
      SCOPED_TRACE(BankFeedName(kAllFeeds[f]));
      ExpectAlcWindowsEqual(got[f], got[0]);
    }
  }
}

void ExpectOptionalCurvesEqual(const std::optional<Curve>& got, const std::optional<Curve>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got.has_value()) {
    ExpectCurvesEqual(*got, *want);
  }
}

TEST(ColumnarObserveDifferentialTest, AnalyzerChunkingInvariant) {
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 4);
  AnalyzerConfig cfg;
  cfg.sampling_ratio = 0.5;
  cfg.num_minicaches = 8;
  cfg.min_capacity_bytes = 50'000;
  cfg.max_capacity_bytes = 2'000'000;
  cfg.enable_alc = true;
  cfg.enable_ttl = true;
  cfg.max_ttl = 2 * kDay;
  ThreadPool pool(3);
  std::vector<std::unique_ptr<WorkloadAnalyzer>> analyzers;
  for (const BankFeed feed : kAllFeeds) {
    analyzers.push_back(std::make_unique<WorkloadAnalyzer>(cfg, &gen));
    WireFeed(*analyzers.back(), feed, pool);
  }
  for (int w = 0; w < 3; ++w) {
    SCOPED_TRACE(w);
    const auto reqs = MixedWindow(3000, 20'000, 83 + w);
    std::vector<AnalyzerReport> got;
    for (size_t f = 0; f < analyzers.size(); ++f) {
      FeedColumns(*analyzers[f], reqs, FeedChunkRows(kAllFeeds[f]));
      if (w == 1) {
        analyzers[f]->SetOscCapacity(1'000'000);
      }
      got.push_back(analyzers[f]->EndWindow(15 * kMinute));
    }
    for (size_t f = 1; f < got.size(); ++f) {
      SCOPED_TRACE(BankFeedName(kAllFeeds[f]));
      const AnalyzerReport& a = got[f];
      const AnalyzerReport& b = got[0];
      ExpectCurvesEqual(a.aggregated_mrc, b.aggregated_mrc);
      ExpectCurvesEqual(a.aggregated_bmc, b.aggregated_bmc);
      ExpectOptionalCurvesEqual(a.latest_alc, b.latest_alc);
      ASSERT_TRUE(a.ttl_curves_latest.has_value());
      ASSERT_TRUE(b.ttl_curves_latest.has_value());
      ExpectCurvesEqual(a.ttl_curves_latest->mrc, b.ttl_curves_latest->mrc);
      ExpectCurvesEqual(a.ttl_curves_latest->bmc, b.ttl_curves_latest->bmc);
      ExpectCurvesEqual(a.ttl_curves_latest->capacity, b.ttl_curves_latest->capacity);
      EXPECT_EQ(a.ttl_curves_latest->sampled_gets, b.ttl_curves_latest->sampled_gets);
      EXPECT_EQ(a.ttl_curves_latest->window_requests, b.ttl_curves_latest->window_requests);
      ExpectOptionalCurvesEqual(a.aggregated_ttl_mrc, b.aggregated_ttl_mrc);
      ExpectOptionalCurvesEqual(a.aggregated_ttl_bmc, b.aggregated_ttl_bmc);
      ExpectOptionalCurvesEqual(a.aggregated_ttl_capacity, b.aggregated_ttl_capacity);
      EXPECT_EQ(a.expected_window_reads, b.expected_window_reads);
      EXPECT_EQ(a.expected_window_writes, b.expected_window_writes);
      EXPECT_EQ(a.expected_window_get_bytes, b.expected_window_get_bytes);
      EXPECT_EQ(a.mean_object_bytes, b.mean_object_bytes);
      EXPECT_EQ(a.lambda_gb_seconds, b.lambda_gb_seconds);
      EXPECT_EQ(a.analysis_seconds, b.analysis_seconds);
      EXPECT_EQ(a.window_requests, b.window_requests);
    }
  }
}

TEST(ColumnarObserveDifferentialTest, CompactAdmittedMatchesScalarSampler) {
  // The compaction kernel (AVX2 or scalar, whichever this machine
  // dispatches to) must agree exactly with per-row SpatialSampler admission
  // on indices and salted hashes, including at uneven tail lengths.
  SpatialSampler sampler(0.3, /*salt=*/0x5a17);
  Rng rng(99);
  ZipfSampler zipf(100'000, 0.9);
  for (const size_t n : {size_t{1}, size_t{3}, size_t{509}, size_t{4096}, size_t{10'000}}) {
    std::vector<ObjectId> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = zipf.Sample(rng);
    }
    std::vector<uint32_t> idx(n);
    std::vector<uint64_t> hash(n);
    const size_t m = sampler.CompactAdmitted(ids.data(), n, idx.data(), hash.data());
    size_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      if (sampler.Admit(ids[i])) {
        ASSERT_LT(want, m);
        EXPECT_EQ(idx[want], i);
        EXPECT_EQ(hash[want], sampler.Hash(ids[i]));
        ++want;
      }
    }
    EXPECT_EQ(m, want) << "n=" << n;
  }
}

// --- One-pass LRU timeline vs per-grid LruCache replay ---
//
// An LRU MrcBank replays every grid point in one pass over a shared
// recency timeline; it must reproduce, window by window, the per-grid
// LruCache replay it replaced. The reference samples with the bank's own
// sampler, replays each admitted request into one LruCache per grid point
// with mini-sim semantics, and folds its counters with EndWindow's
// arithmetic, so the curves compare exactly.
class PerGridLruReference {
 public:
  PerGridLruReference(std::vector<uint64_t> grid, double ratio, uint64_t salt)
      : grid_(std::move(grid)), ratio_(ratio), sampler_(ratio, salt) {
    for (const uint64_t capacity : grid_) {
      caches_.emplace_back(std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio_)));
    }
    misses_.assign(grid_.size(), 0);
    missed_bytes_.assign(grid_.size(), 0);
  }

  void Process(const Request& r) {
    ++requests_;
    gets_ += r.op == Op::kGet ? 1 : 0;
    if (!sampler_.Admit(r.id)) {
      return;
    }
    sampled_gets_ += r.op == Op::kGet ? 1 : 0;
    for (size_t i = 0; i < caches_.size(); ++i) {
      LruCache& c = caches_[i];
      switch (r.op) {
        case Op::kGet:
          if (!c.Get(r.id)) {
            ++misses_[i];
            missed_bytes_[i] += r.size;
            c.Put(r.id, r.size);
          }
          break;
        case Op::kPut:
          c.Put(r.id, r.size);
          break;
        case Op::kDelete:
          c.Erase(r.id);
          break;
      }
    }
  }

  WindowCurves EndWindow() {
    const double realized_rate =
        (gets_ > 0 && sampled_gets_ > 0)
            ? static_cast<double>(sampled_gets_) / static_cast<double>(gets_)
            : ratio_;
    std::vector<double> xs;
    std::vector<double> mrc;
    std::vector<double> bmc;
    for (size_t i = 0; i < grid_.size(); ++i) {
      xs.push_back(static_cast<double>(grid_[i]));
      mrc.push_back(sampled_gets_ == 0
                        ? 0.0
                        : std::min(1.0, static_cast<double>(misses_[i]) /
                                            static_cast<double>(sampled_gets_)));
      bmc.push_back(static_cast<double>(missed_bytes_[i]) / realized_rate);
    }
    WindowCurves out;
    out.mrc = Curve(xs, std::move(mrc));
    out.bmc = Curve(std::move(xs), std::move(bmc));
    out.sampled_gets = sampled_gets_;
    out.window_requests = requests_;
    std::fill(misses_.begin(), misses_.end(), 0);
    std::fill(missed_bytes_.begin(), missed_bytes_.end(), 0);
    requests_ = gets_ = sampled_gets_ = 0;
    return out;
  }

 private:
  std::vector<uint64_t> grid_;
  double ratio_;
  SpatialSampler sampler_;
  std::vector<LruCache> caches_;
  std::vector<uint64_t> misses_;
  std::vector<uint64_t> missed_bytes_;
  uint64_t requests_ = 0;
  uint64_t gets_ = 0;
  uint64_t sampled_gets_ = 0;
};

// GET/PUT/DELETE Zipf mix in which PUTs resize objects: most new sizes are
// small (so a PUT grows or shrinks a resident object), `big_pct` percent
// are large enough to fit only the larger grid points — or to grow a
// resident object past a smaller one's capacity. GETs always carry the
// object's current size, so the timeline never needs its fallback.
std::vector<std::vector<Request>> ResizingWindows(uint64_t objects, int windows,
                                                  uint64_t per_window, int put_pct,
                                                  int delete_pct, int big_pct,
                                                  uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(objects, 0.8);
  std::vector<uint64_t> size(objects);
  for (ObjectId id = 0; id < objects; ++id) {
    size[id] = SizeOfId(id);
  }
  std::vector<std::vector<Request>> out(windows);
  SimTime t = 0;
  for (auto& window : out) {
    for (uint64_t i = 0; i < per_window; ++i) {
      const ObjectId id = zipf.Sample(rng);
      const int roll = static_cast<int>(rng.NextU64() % 100);
      Op op = Op::kGet;
      if (roll < put_pct) {
        op = Op::kPut;
        size[id] = rng.NextU64() % 100 < static_cast<uint64_t>(big_pct)
                       ? 60'000 + rng.NextU64() % 400'000
                       : 1 + rng.NextU64() % 4096;
      } else if (roll < put_pct + delete_pct) {
        op = Op::kDelete;
      }
      window.push_back({t += 10, id, size[id], op});
    }
  }
  return out;
}

// Feeds `windows` to a one-pass LRU bank (through `feed`) and to the
// per-grid reference, comparing every window's curves exactly. Returns
// the bank's timeline compaction count.
uint64_t ExpectTimelineMatchesPerGrid(const std::vector<uint64_t>& grid, double ratio,
                                      const std::vector<std::vector<Request>>& windows,
                                      BankFeed feed, bool expect_one_pass = true) {
  SCOPED_TRACE(BankFeedName(feed));
  SCOPED_TRACE(ratio);
  constexpr uint64_t kSalt = 0x5eed;
  MrcBank bank(grid, ratio, kSalt);
  PerGridLruReference ref(grid, ratio, kSalt);
  ThreadPool pool(3);
  WireFeed(bank, feed, pool);
  EXPECT_TRUE(bank.one_pass());
  for (size_t w = 0; w < windows.size(); ++w) {
    FeedColumns(bank, windows[w], FeedChunkRows(feed));
    for (const Request& r : windows[w]) {
      ref.Process(r);
    }
    const WindowCurves got = bank.EndWindow();
    const WindowCurves want = ref.EndWindow();
    EXPECT_EQ(got.mrc.xs(), want.mrc.xs()) << "window " << w;
    EXPECT_EQ(got.mrc.ys(), want.mrc.ys()) << "window " << w;
    EXPECT_EQ(got.bmc.ys(), want.bmc.ys()) << "window " << w;
    EXPECT_EQ(got.sampled_gets, want.sampled_gets) << "window " << w;
    EXPECT_EQ(got.window_requests, want.window_requests) << "window " << w;
  }
  EXPECT_EQ(bank.one_pass(), expect_one_pass);
  return bank.timeline_compactions();
}

TEST(LruTimelineDifferentialTest, GetPutDeleteMixes) {
  const auto grid = UniformSizeGrid(20'000, 2'000'000, 16);
  const auto windows = ResizingWindows(3000, 4, 12'000, /*put_pct=*/20, /*delete_pct=*/10,
                                       /*big_pct=*/0, 71);
  for (const BankFeed feed : kAllFeeds) {
    for (const double ratio : {1.0, 0.5}) {
      ExpectTimelineMatchesPerGrid(grid, ratio, windows, feed);
    }
  }
}

TEST(LruTimelineDifferentialTest, ResizingPutsAndLargeObjects) {
  // Big PUTs grow resident objects past the smaller grid points (emptying
  // them) and admit objects only the larger grid points fit; small PUTs
  // shrink them again.
  const auto grid = UniformSizeGrid(50'000, 3'000'000, 12);
  const auto windows = ResizingWindows(2000, 4, 12'000, /*put_pct=*/30, /*delete_pct=*/5,
                                       /*big_pct=*/15, 72);
  for (const BankFeed feed : kAllFeeds) {
    for (const double ratio : {1.0, 0.5}) {
      ExpectTimelineMatchesPerGrid(grid, ratio, windows, feed);
    }
  }
}

TEST(LruTimelineDifferentialTest, ScriptedEdgeCases) {
  // Grid points of 1000, 3000 and 10000 bytes at full sampling.
  const std::vector<uint64_t> grid = {1000, 3000, 10'000};
  const auto get = [](ObjectId id, uint64_t size) { return Request{0, id, size, Op::kGet}; };
  const auto put = [](ObjectId id, uint64_t size) { return Request{0, id, size, Op::kPut}; };
  const auto del = [](ObjectId id) { return Request{0, id, 0, Op::kDelete}; };
  const std::vector<std::vector<Request>> windows = {
      // Fill: 1000 evicts 1, the others hold 1..3.
      {get(1, 400), get(2, 400), get(3, 400), get(1, 400), get(2, 400)},
      // Grow resident 2 past 1000 (empties it) but not 3000; shrink it back.
      {put(2, 2000), get(3, 400), get(2, 2000), put(2, 100), get(2, 100), get(1, 400)},
      // DELETE leaves a hole that no earlier eviction refills.
      {get(4, 300), del(3), get(5, 300), get(3, 400), get(2, 100), get(1, 400)},
      // Objects that fit only 10000; PUT past every capacity on a resident
      // object; a PUT of an absent object too large for everything.
      {get(6, 5000), get(6, 5000), put(7, 2500), get(7, 2500), put(6, 20'000), get(6, 20'000),
       put(8, 50'000), get(8, 50'000), get(7, 2500)},
      // Zero-byte objects and re-deleting absent ones.
      {get(9, 0), get(9, 0), del(9), del(9), get(9, 0), put(10, 0), get(1, 400)},
  };
  for (const BankFeed feed : kAllFeeds) {
    ExpectTimelineMatchesPerGrid(grid, 1.0, windows, feed);
  }
}

TEST(LruTimelineDifferentialTest, SizeMismatchFallsBackExactly) {
  // A GET whose size disagrees with a resident copy: the grid points that
  // hold the copy hit at the old size, the others admit the new one. The
  // bank must rebuild per-grid caches there and stay exact afterwards.
  const auto grid = UniformSizeGrid(20'000, 2'000'000, 16);
  constexpr uint64_t kSalt = 0x5eed;
  for (const double ratio : {1.0, 0.5}) {
    auto windows = ResizingWindows(3000, 5, 10'000, 20, 5, 5, 73);
    // An object the bank samples, made resident, then read at a new size
    // mid-window.
    const SpatialSampler sampler(ratio, kSalt);
    ObjectId id = 0;
    while (!sampler.Admit(id)) {
      ++id;
    }
    auto& mid = windows[2];
    mid.insert(mid.begin() + 5000, {Request{0, id, 900, Op::kPut}, Request{0, id, 900, Op::kGet},
                                    Request{0, id, 901, Op::kGet}});
    for (const BankFeed feed : kAllFeeds) {
      ExpectTimelineMatchesPerGrid(grid, ratio, windows, feed, /*expect_one_pass=*/false);
    }
  }
}

TEST(LruTimelineDifferentialTest, LongStreamCompactsTimeline) {
  // Every re-touch kills a timeline slot, so a long stream over a modest
  // population compacts the timeline many times (dropping entries no grid
  // point holds) between and within windows.
  const auto grid = UniformSizeGrid(10'000, 1'000'000, 8);
  const auto windows = ResizingWindows(1500, 6, 40'000, 15, 5, 2, 74);
  for (const BankFeed feed : kAllFeeds) {
    EXPECT_GT(ExpectTimelineMatchesPerGrid(grid, 1.0, windows, feed), 5u);
  }
}

TEST(LruTimelineDifferentialTest, ScanStaysBounded) {
  // A scan never re-touches an object, so no timeline slot dies; entries
  // below every floor must still be compacted away, or the bank would keep
  // one entry per distinct sampled object.
  const auto grid = UniformSizeGrid(10'000, 1'000'000, 8);
  std::vector<std::vector<Request>> windows(4);
  ObjectId next = 0;
  for (auto& window : windows) {
    for (int i = 0; i < 50'000; ++i, ++next) {
      window.push_back({0, next, SizeOfId(next), Op::kGet});
    }
  }
  for (const BankFeed feed : kAllFeeds) {
    EXPECT_GT(ExpectTimelineMatchesPerGrid(grid, 1.0, windows, feed), 0u);
  }
  MrcBank bank(grid, 1.0, 0);
  for (const auto& window : windows) {
    FeedColumns(bank, window);
    bank.EndWindow();
  }
  // The 1 MB grid point holds ~480 of these ~2.1 KB objects.
  EXPECT_LT(bank.allocated_nodes(), 4096u);
}

// The benchmark's inputs — SyntheticStreamSource streams and GenerateTrace
// + SplitObjects traces — keep one size per object for GETs, so their LRU
// banks never take the fallback.
TEST(LruTimelineDifferentialTest, SyntheticInputsNeverFallBack) {
  StreamProfile stream;
  stream.num_requests = 400'000;
  stream.population = 1 << 15;
  stream.zipf_alpha = 0.9;
  stream.mean_object_bytes = 1 << 20;
  stream.put_fraction = 0.25;
  stream.delete_fraction = 0.05;
  stream.duration = 3 * kDay;
  stream.drift_period = 6 * kHour;
  stream.flash_at = kDay;
  stream.flash_duration = 2 * kHour;
  stream.seed = 75;
  {
    MrcBank bank(UniformSizeGrid(100'000'000, 40'000'000'000ull, 48), 0.1, 3);
    SyntheticStreamSource source(stream, 8192);
    ReplayBatch chunk;
    int chunks = 0;
    while (source.FillNext(&chunk)) {
      bank.ProcessColumns(chunk, 0, chunk.size());
      if (++chunks % 8 == 0) {
        bank.EndWindow();
      }
    }
    bank.EndWindow();
    EXPECT_TRUE(bank.one_pass());
  }
  for (const char* name : {"ibm9", "ibm18", "ibm45", "ibm55", "ibm58", "ibm83"}) {
    SCOPED_TRACE(name);
    const WorkloadProfile p = ProfileByName(name);
    const Trace trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
    MrcBank bank(UniformSizeGrid(1'000'000, 4'000'000'000ull, 48), 0.05, 5);
    const ReplayBatch chunk = ToChunk(trace.requests);
    for (size_t begin = 0; begin < chunk.size(); begin += 20'000) {
      bank.ProcessColumns(chunk, begin, std::min(begin + 20'000, chunk.size()));
      bank.EndWindow();
    }
    EXPECT_TRUE(bank.one_pass());
  }
}

// --- ALC slot rows vs per-grid LruCache + InflightTable replay ---
//
// AlcBank replays each grid point over dense slot rows; it must reproduce,
// window by window and bit for bit, the replay it replaced: per grid point
// one LruCache per level and one InflightTable. The reference samples with
// the bank's sampler, draws latencies from its own Rng seeded like the
// bank's, per admitted GET as it arrives (the bank draws them batch by
// batch when it prepares a batch, so this also pins that the draws keep
// the stream order), replays each admitted request at once (batching never
// reorders a grid point's requests) and folds its counters with
// EndWindow's arithmetic.
class PerGridAlcReference {
 public:
  PerGridAlcReference(const std::vector<uint64_t>& grid, uint64_t osc_capacity, double ratio,
                      uint64_t salt, const LatencySampler* latency, uint64_t seed)
      : grid_(grid), ratio_(ratio), sampler_(ratio, salt), latency_(latency), rng_(seed) {
    for (const uint64_t capacity : grid_) {
      levels_.push_back(Level{LruCache(Mini(capacity)), LruCache(Mini(osc_capacity)),
                              InflightTable{}, 0.0, AlcLevelCounts{}});
    }
  }

  void SetOscCapacity(uint64_t osc_capacity) {
    for (Level& level : levels_) {
      level.osc.Resize(Mini(osc_capacity));
    }
  }

  void Process(const Request& r) {
    if (!sampler_.Admit(r.id)) {
      return;
    }
    double lat_cluster = 0.0;
    double lat_osc = 0.0;
    double lat_remote = 0.0;
    if (r.op == Op::kGet) {
      lat_cluster = latency_->SampleMs(DataSource::kCacheCluster, r.size, rng_);
      lat_osc = latency_->SampleMs(DataSource::kOsc, r.size, rng_);
      lat_remote = latency_->SampleMs(DataSource::kRemoteLake, r.size, rng_);
    }
    for (Level& level : levels_) {
      switch (r.op) {
        case Op::kGet:
          if (auto completion = level.inflight.Pending(r.id, r.time)) {
            level.latency_sum_ms += static_cast<double>(*completion - r.time);
            ++level.counts.delayed_hits;
          } else if (level.cluster.Get(r.id)) {
            level.latency_sum_ms += lat_cluster;
            ++level.counts.cluster_hits;
          } else if (level.osc.Get(r.id)) {
            level.latency_sum_ms += lat_osc;
            ++level.counts.osc_hits;
            level.cluster.Put(r.id, r.size);
          } else {
            level.latency_sum_ms += lat_remote;
            ++level.counts.remote_misses;
            level.inflight.Insert(r.id, r.time + static_cast<SimTime>(lat_remote));
            level.osc.Put(r.id, r.size);
            level.cluster.Put(r.id, r.size);
          }
          break;
        case Op::kPut:
          level.osc.Put(r.id, r.size);
          level.cluster.Put(r.id, r.size);
          break;
        case Op::kDelete:
          level.osc.Erase(r.id);
          level.cluster.Erase(r.id);
          level.inflight.Erase(r.id);
          break;
      }
    }
  }

  AlcWindow EndWindow() {
    AlcWindow out;
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t i = 0; i < grid_.size(); ++i) {
      Level& level = levels_[i];
      const uint64_t n = level.counts.total();
      xs.push_back(static_cast<double>(grid_[i]));
      ys.push_back(n == 0 ? 0.0 : level.latency_sum_ms / static_cast<double>(n));
      out.level_counts.push_back(level.counts);
      level.latency_sum_ms = 0.0;
      level.counts = AlcLevelCounts{};
    }
    out.alc = Curve(std::move(xs), std::move(ys));
    out.sampled_gets = out.level_counts.front().total();
    return out;
  }

 private:
  struct Level {
    LruCache cluster;
    LruCache osc;
    InflightTable inflight;
    double latency_sum_ms = 0.0;
    AlcLevelCounts counts;
  };

  uint64_t Mini(uint64_t capacity) const {
    return std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio_));
  }

  std::vector<uint64_t> grid_;
  double ratio_;
  SpatialSampler sampler_;
  const LatencySampler* latency_;
  Rng rng_;
  std::vector<Level> levels_;
};

// A stretch of stream, then an optional OSC resize, then (by default) the
// window's end.
struct AlcStep {
  std::vector<Request> requests;
  uint64_t osc_capacity = 0;  // SetOscCapacity after the requests when nonzero
  bool end_window = true;
};

struct AlcRunSummary {
  size_t allocated_nodes = 0;
  uint64_t delayed_hits = 0;  // over every window and grid point
};

// Feeds `steps` to an AlcBank (through `feed`) and to the per-grid
// reference, comparing every window exactly.
AlcRunSummary ExpectAlcMatchesPerGrid(const std::vector<uint64_t>& grid, uint64_t osc_capacity,
                                      double ratio, const LatencySampler& latency,
                                      const std::vector<AlcStep>& steps, BankFeed feed) {
  SCOPED_TRACE(BankFeedName(feed));
  SCOPED_TRACE(ratio);
  constexpr uint64_t kSalt = 0xa1c5;
  constexpr uint64_t kSeed = 0xa1c0;
  ThreadPool pool(3);
  AlcBank bank(grid, osc_capacity, ratio, kSalt, &latency, kSeed);
  PerGridAlcReference ref(grid, osc_capacity, ratio, kSalt, &latency, kSeed);
  WireFeed(bank, feed, pool);
  AlcRunSummary summary;
  int window = 0;
  for (const AlcStep& step : steps) {
    FeedColumns(bank, step.requests, FeedChunkRows(feed));
    for (const Request& r : step.requests) {
      ref.Process(r);
    }
    if (step.osc_capacity != 0) {
      bank.SetOscCapacity(step.osc_capacity);
      ref.SetOscCapacity(step.osc_capacity);
    }
    if (step.end_window) {
      const AlcWindow got = bank.EndWindow();
      SCOPED_TRACE(window++);
      ExpectAlcWindowsEqual(got, ref.EndWindow());
      for (const AlcLevelCounts& c : got.level_counts) {
        summary.delayed_hits += c.delayed_hits;
      }
    }
  }
  summary.allocated_nodes = bank.allocated_nodes();
  return summary;
}

// Splits each window in two and resizes the OSC between the halves: down
// to `small` in the second window, back to `restore` in the third.
std::vector<AlcStep> WithOscResizes(const std::vector<std::vector<Request>>& windows,
                                    uint64_t small, uint64_t restore) {
  std::vector<AlcStep> steps;
  for (size_t w = 0; w < windows.size(); ++w) {
    const auto mid = windows[w].begin() + static_cast<std::ptrdiff_t>(windows[w].size() / 2);
    const uint64_t resize = w == 1 ? small : (w == 2 ? restore : 0);
    steps.push_back({{windows[w].begin(), mid}, resize, /*end_window=*/false});
    steps.push_back({{mid, windows[w].end()}});
  }
  return steps;
}

// Fixed per-source latencies (ms), so scripted requests can land exactly
// on a fetch's completion time.
class FixedLatency : public LatencySampler {
 public:
  double SampleMs(DataSource source, uint64_t, Rng&) const override {
    switch (source) {
      case DataSource::kCacheCluster:
        return 1.0;
      case DataSource::kOsc:
        return 10.0;
      default:
        return 100.0;
    }
  }
};

TEST(AlcRowDifferentialTest, GetPutDeleteMixes) {
  // Requests 10 ms apart, so hot objects come back while their fetch is in
  // flight; every 53rd GET carries a size its resident copy does not have.
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 5);
  const auto grid = UniformSizeGrid(20'000, 2'000'000, 16);
  auto windows = ResizingWindows(3000, 4, 12'000, /*put_pct=*/20, /*delete_pct=*/10,
                                 /*big_pct=*/0, 81);
  uint64_t gets = 0;
  for (auto& window : windows) {
    for (Request& r : window) {
      if (r.op == Op::kGet && ++gets % 53 == 0) {
        r.size = r.size / 2 + 1;
      }
    }
  }
  const auto steps = WithOscResizes(windows, /*small=*/1, /*restore=*/1'000'000);
  for (const BankFeed feed : kAllFeeds) {
    for (const double ratio : {1.0, 0.5}) {
      EXPECT_GT(ExpectAlcMatchesPerGrid(grid, 1'000'000, ratio, gen, steps, feed).delayed_hits,
                0u);
    }
  }
}

TEST(AlcRowDifferentialTest, ResizingPutsAndLargeObjects) {
  // Big PUTs (60–460 KB) grow resident objects past the smaller clusters
  // and admit objects the OSC fits but the smaller clusters do not; small
  // PUTs shrink them again.
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 6);
  const auto grid = UniformSizeGrid(50'000, 3'000'000, 12);
  const auto windows = ResizingWindows(2000, 4, 12'000, /*put_pct=*/30, /*delete_pct=*/5,
                                       /*big_pct=*/15, 82);
  const auto steps = WithOscResizes(windows, /*small=*/200'000, /*restore=*/4'000'000);
  for (const BankFeed feed : kAllFeeds) {
    for (const double ratio : {1.0, 0.5}) {
      ExpectAlcMatchesPerGrid(grid, 4'000'000, ratio, gen, steps, feed);
    }
  }
}

TEST(AlcRowDifferentialTest, ScriptedEdgeCases) {
  // Clusters of 1000, 3000 and 10000 bytes over a 5000-byte OSC at full
  // sampling; remote fetches take exactly 100 ms.
  const FixedLatency latency;
  const std::vector<uint64_t> grid = {1000, 3000, 10'000};
  const auto get = [](SimTime t, ObjectId id, uint64_t size) {
    return Request{t, id, size, Op::kGet};
  };
  const auto put = [](SimTime t, ObjectId id, uint64_t size) {
    return Request{t, id, size, Op::kPut};
  };
  const auto del = [](SimTime t, ObjectId id) { return Request{t, id, 0, Op::kDelete}; };
  const std::vector<AlcStep> steps = {
      // A delayed-hit burst on 1's fetch (completing at 100), a GET exactly
      // at the completion time (expired: a cluster hit), and a DELETE while
      // 2's fetch is in flight (the next GET fetches again).
      {{get(0, 1, 400), get(10, 1, 400), get(20, 1, 400), get(99, 1, 400), get(100, 1, 400),
        get(110, 2, 400), get(120, 2, 400), del(130, 2), get(140, 2, 400), get(150, 3, 400),
        get(160, 2, 400), get(239, 2, 400), get(240, 2, 400)}},
      // A GET at a size the resident copy does not have; a PUT growing
      // resident 2 past the 1000-byte cluster (evicting it, the object
      // last) but not past 3000, then shrinking it; an object the OSC and
      // the largest cluster fit but the smaller clusters do not.
      {{get(300, 1, 900), get(310, 3, 400), put(320, 2, 2000), get(330, 2, 2000),
        put(340, 2, 100), get(350, 2, 100), get(360, 4, 4500), get(470, 4, 4500),
        get(480, 1, 400), put(490, 4, 6000), get(500, 4, 6000)}},
      // Zero-byte objects, re-deleting absent ones, then the OSC shrinks to
      // one byte mid-window (only zero-byte objects still fit) ...
      {{get(600, 9, 0), get(610, 9, 0), get(710, 9, 0), del(720, 9), del(730, 9),
        get(740, 9, 0), put(750, 10, 0), get(760, 10, 0), get(770, 5, 300)},
       /*osc_capacity=*/1,
       /*end_window=*/false},
      // ... and grows back before the window ends.
      {{get(900, 5, 300), get(910, 6, 300), get(1020, 9, 0), get(1030, 10, 0),
        get(1040, 1, 400)},
       /*osc_capacity=*/5000,
       /*end_window=*/false},
      {{get(1200, 5, 300), get(1210, 6, 300), get(1320, 7, 700), get(1330, 1, 400),
        get(1340, 2, 100), get(1350, 4, 4500)}},
  };
  for (const BankFeed feed : kAllFeeds) {
    EXPECT_GT(ExpectAlcMatchesPerGrid(grid, 5000, 1.0, latency, steps, feed).delayed_hits, 0u);
  }
}

TEST(AlcRowDifferentialTest, ScanReclaimsSlotsThenRereads) {
  // A scan of 30k objects (1 s apart, so every fetch completes before the
  // next request) frees the slots of objects no cache holds any more; the
  // next window re-reads some of them, which must behave as first reads.
  // A last window scans 1 ms apart and re-reads every fourth object 20 ms
  // later; every fifth object is too large for any level, so while its
  // fetch is in flight only that fetch holds its slot.
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 7);
  const auto grid = UniformSizeGrid(100'000, 2'000'000, 6);
  std::vector<AlcStep> steps(4);
  SimTime t = 0;
  for (ObjectId id = 0; id < 30'000; ++id) {
    steps[id < 15'000 ? 0 : 1].requests.push_back({t += kSecond, id, 1000, Op::kGet});
  }
  Rng rng(83);
  for (int i = 0; i < 6000; ++i) {
    const ObjectId id = rng.NextU64() % 31'000;  // mostly reclaimed ids, some new
    steps[2].requests.push_back({t += 40, id, 1000, Op::kGet});
  }
  const auto size_of = [](ObjectId id) -> uint64_t { return id % 5 == 0 ? 5'000'000 : 1000; };
  for (ObjectId id = 100'000; id < 140'000; ++id) {
    steps[3].requests.push_back({t += 1, id, size_of(id), Op::kGet});
    if (id % 4 == 0) {
      steps[3].requests.push_back({t += 1, id - 20, size_of(id - 20), Op::kGet});
    }
  }
  for (const BankFeed feed : kAllFeeds) {
    const AlcRunSummary run = ExpectAlcMatchesPerGrid(grid, 2'000'000, 1.0, gen, steps, feed);
    EXPECT_LT(run.allocated_nodes, 15'000u);
    EXPECT_GT(run.delayed_hits, 0u);
  }
}

TEST(AlcRowDifferentialTest, ScanKeepsSlotsBounded) {
  // A 200k-object scan of 1000-byte objects: the largest mini-cluster and
  // the mini-OSC each hold 4000, and slots must stay below those plus one
  // 4096-request batch, where one slot per distinct id would be 200k.
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 8);
  const auto grid = UniformSizeGrid(500'000, 4'000'000, 8);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async);
    ThreadPool pool(3);
    AlcBank bank(grid, /*osc=*/4'000'000, 1.0, 0, &gen, 23);
    if (async) {
      bank.SetExecution(&pool, /*async=*/true);
    }
    std::vector<Request> scan;
    for (ObjectId id = 0; id < 200'000; ++id) {
      scan.push_back({static_cast<SimTime>(id) * kSecond, id, 1000, Op::kGet});
    }
    const ReplayBatch chunk = ToChunk(scan);
    for (size_t begin = 0; begin < chunk.size(); begin += 50'000) {
      bank.ProcessColumns(chunk, begin, begin + 50'000);
      bank.EndWindow();
    }
    EXPECT_LT(bank.allocated_nodes(), 4000u + 4000u + 4096u);
  }
}

}  // namespace
}  // namespace macaron
