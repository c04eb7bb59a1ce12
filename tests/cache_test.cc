// Unit tests for src/cache: LRU, TTL cache, in-flight table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/inflight.h"
#include "src/cache/lru_cache.h"
#include "src/cache/slab_lru.h"
#include "src/cache/ttl_cache.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/zipf.h"
#include "src/obs/metrics.h"

namespace macaron {
namespace {

// --- LruCache ---

TEST(LruCacheTest, MissOnEmpty) {
  LruCache c(100);
  EXPECT_FALSE(c.Get(1));
}

TEST(LruCacheTest, HitAfterPut) {
  LruCache c(100);
  c.Put(1, 10);
  EXPECT_TRUE(c.Get(1));
  EXPECT_EQ(c.used_bytes(), 10u);
  EXPECT_EQ(c.num_entries(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache c(30);
  c.Put(1, 10);
  c.Put(2, 10);
  c.Put(3, 10);
  c.Get(1);       // promote 1; LRU is now 2
  c.Put(4, 10);   // evicts 2
  EXPECT_TRUE(c.Contains(1));
  EXPECT_FALSE(c.Contains(2));
  EXPECT_TRUE(c.Contains(3));
  EXPECT_TRUE(c.Contains(4));
}

TEST(LruCacheTest, ByteCapacityEvictsMultiple) {
  LruCache c(100);
  c.Put(1, 40);
  c.Put(2, 40);
  c.Put(3, 90);  // must evict both
  EXPECT_FALSE(c.Contains(1));
  EXPECT_FALSE(c.Contains(2));
  EXPECT_TRUE(c.Contains(3));
  EXPECT_EQ(c.used_bytes(), 90u);
}

TEST(LruCacheTest, OversizedObjectNotAdmitted) {
  LruCache c(100);
  c.Put(1, 50);
  c.Put(2, 101);
  EXPECT_FALSE(c.Contains(2));
  EXPECT_TRUE(c.Contains(1));  // untouched
}

TEST(LruCacheTest, PutExistingRefreshesRecency) {
  LruCache c(20);
  c.Put(1, 10);
  c.Put(2, 10);
  c.Put(1, 10);  // refresh
  c.Put(3, 10);  // evicts 2, not 1
  EXPECT_TRUE(c.Contains(1));
  EXPECT_FALSE(c.Contains(2));
}

TEST(LruCacheTest, PutExistingWithNewSizeAdjustsBytes) {
  LruCache c(100);
  c.Put(1, 10);
  c.Put(1, 30);
  EXPECT_EQ(c.used_bytes(), 30u);
  EXPECT_EQ(c.SizeOf(1), 30u);
}

TEST(LruCacheTest, Erase) {
  LruCache c(100);
  c.Put(1, 10);
  EXPECT_TRUE(c.Erase(1));
  EXPECT_FALSE(c.Erase(1));
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(LruCacheTest, ResizeShrinkEvicts) {
  LruCache c(100);
  c.Put(1, 40);
  c.Put(2, 40);
  c.Resize(50);
  EXPECT_FALSE(c.Contains(1));
  EXPECT_TRUE(c.Contains(2));
  EXPECT_LE(c.used_bytes(), 50u);
}

TEST(LruCacheTest, EvictCallbackFires) {
  LruCache c(20);
  std::vector<ObjectId> evicted;
  c.set_evict_callback([&](ObjectId id, uint64_t, uint32_t) { evicted.push_back(id); });
  c.Put(1, 10);
  c.Put(2, 10);
  c.Put(3, 10);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
}

TEST(LruCacheTest, IterationOrders) {
  LruCache c(100);
  c.Put(1, 10);
  c.Put(2, 10);
  c.Put(3, 10);
  std::vector<ObjectId> mru;
  c.ForEachHotOrder([&](ObjectId id, uint64_t) {
    mru.push_back(id);
    return true;
  });
  EXPECT_EQ(mru, (std::vector<ObjectId>{3, 2, 1}));
  std::vector<ObjectId> lru;
  c.ForEachEvictOrder([&](ObjectId id, uint64_t) {
    lru.push_back(id);
    return true;
  });
  EXPECT_EQ(lru, (std::vector<ObjectId>{1, 2, 3}));
}

TEST(LruCacheTest, IterationEarlyStop) {
  LruCache c(100);
  c.Put(1, 10);
  c.Put(2, 10);
  int visited = 0;
  c.ForEachHotOrder([&](ObjectId, uint64_t) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

TEST(LruCacheTest, GetPromotes) {
  LruCache c(100);
  c.Put(1, 10);
  c.Put(2, 10);
  c.Get(1);
  std::vector<ObjectId> mru;
  c.ForEachHotOrder([&](ObjectId id, uint64_t) {
    mru.push_back(id);
    return true;
  });
  EXPECT_EQ(mru.front(), 1u);
}

TEST(LruCacheTest, StressInvariant) {
  LruCache c(1000);
  for (int i = 0; i < 10000; ++i) {
    c.Put(static_cast<ObjectId>(i % 300), static_cast<uint64_t>(1 + i % 50));
    ASSERT_LE(c.used_bytes(), 1000u);
  }
}

// --- NodeSlab ---

// Nodes are 32 bytes and 32-byte aligned, so none straddles a cache line;
// the vector's over-aligned allocation must keep that through every
// doubling (the ubsan lane's alignment check guards node accesses too).
TEST(NodeSlabTest, NodesStay32ByteAlignedThroughGrowth) {
  NodeSlab slab;
  size_t growths = 0;
  const SlabNode* first = nullptr;
  for (ObjectId id = 0; id < 5000; ++id) {
    const uint32_t slot = slab.Allocate(id, 1);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(&slab.node(slot)) % 32, 0u) << slot;
    if (&slab.node(0) != first) {  // moved to a new buffer
      first = &slab.node(0);
      ++growths;
      for (uint32_t i = 0; i <= slot; ++i) {
        ASSERT_EQ(reinterpret_cast<uintptr_t>(&slab.node(i)) % 32, 0u) << i;
      }
    }
  }
  EXPECT_GE(growths, 5u);
}

// A freed node keeps its tag until a later Allocate reuses the slot, which
// resets it: eviction callbacks read the victim's tag after the free.
TEST(NodeSlabTest, FreeKeepsTheTagUntilReuse) {
  NodeSlab slab;
  const uint32_t slot = slab.Allocate(7, 10, 42);
  slab.Free(slot);
  EXPECT_EQ(slab.node(slot).tag, 42u);
  EXPECT_EQ(slab.Allocate(8, 10), slot);
  EXPECT_EQ(slab.node(slot).tag, 0u);
}

// --- TtlCache ---

TEST(TtlCacheTest, HitWithinTtl) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  EXPECT_TRUE(c.Get(1, 500));
}

TEST(TtlCacheTest, ExpiresAfterTtl) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  EXPECT_FALSE(c.Get(1, 1500));
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(TtlCacheTest, AccessRefreshesExpiry) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  EXPECT_TRUE(c.Get(1, 900));   // refresh at 900
  EXPECT_TRUE(c.Get(1, 1800));  // alive: 900 + 1000 >= 1800
  EXPECT_FALSE(c.Get(1, 3000));
}

TEST(TtlCacheTest, ExpireSweepsOldEntries) {
  TtlCache c(100);
  c.Put(1, 10, 0);
  c.Put(2, 20, 50);
  c.Expire(120);
  EXPECT_EQ(c.num_entries(), 1u);
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(TtlCacheTest, EvictCallbackOnExpiry) {
  TtlCache c(100);
  std::vector<ObjectId> evicted;
  c.set_evict_callback([&](ObjectId id, uint64_t) { evicted.push_back(id); });
  c.Put(1, 10, 0);
  c.Expire(1000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
}

TEST(TtlCacheTest, SetTtlShorterExpiresImmediately) {
  TtlCache c(10000);
  c.Put(1, 10, 0);
  c.Put(2, 10, 5000);
  c.SetTtl(1000, 6000);
  EXPECT_FALSE(c.Get(1, 6000));
  EXPECT_TRUE(c.Get(2, 6000));
}

TEST(TtlCacheTest, EraseRemoves) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  EXPECT_TRUE(c.Erase(1));
  EXPECT_FALSE(c.Get(1, 1));
}

TEST(TtlCacheTest, PutRefreshUpdatesSize) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  c.Put(1, 30, 100);
  EXPECT_EQ(c.used_bytes(), 30u);
  EXPECT_EQ(c.num_entries(), 1u);
}

TEST(TtlCacheTest, NoExpiryAtExactBoundary) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  // last_access + ttl < now triggers eviction; at == it survives.
  EXPECT_TRUE(c.Get(1, 1000));
}

// A slot freed by expiry or erase and reused by a later Put carries the new
// entry's access time, not the old entry's.
TEST(TtlCacheTest, ReusedSlotTakesTheNewAccessTime) {
  TtlCache c(1000);
  c.Put(1, 10, 0);
  c.Put(2, 10, 5000);  // expires 1, then reuses its slot
  EXPECT_EQ(c.allocated_nodes(), 1u);
  EXPECT_TRUE(c.Get(2, 5500));
  EXPECT_TRUE(c.Erase(2));
  c.Put(3, 10, 9000);  // reuses the erased slot
  EXPECT_EQ(c.allocated_nodes(), 1u);
  EXPECT_TRUE(c.Get(3, 9900));
}

// --- InflightTable ---

TEST(InflightTest, PendingWithinWindow) {
  InflightTable t;
  t.Insert(1, 100);
  const auto p = t.Pending(1, 50);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 100);
}

TEST(InflightTest, CompletedIsCleared) {
  InflightTable t;
  t.Insert(1, 100);
  EXPECT_FALSE(t.Pending(1, 100).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(InflightTest, UnknownObject) {
  InflightTable t;
  EXPECT_FALSE(t.Pending(42, 0).has_value());
}

TEST(InflightTest, InsertKeepsLatestCompletion) {
  InflightTable t;
  t.Insert(1, 100);
  t.Insert(1, 80);  // earlier completion does not regress
  EXPECT_EQ(*t.Pending(1, 50), 100);
}

TEST(InflightTest, SweepDropsCompleted) {
  InflightTable t;
  t.Insert(1, 100);
  t.Insert(2, 300);
  t.Sweep(200);
  EXPECT_EQ(t.size(), 1u);
}

TEST(InflightTest, EraseRemoves) {
  InflightTable t;
  t.Insert(1, 100);
  t.Erase(1);
  EXPECT_FALSE(t.Pending(1, 50).has_value());
}

TEST(InflightTest, InvalidateDropsEntryAndReports) {
  InflightTable t;
  t.Insert(1, 100);
  EXPECT_TRUE(t.Invalidate(1));
  EXPECT_FALSE(t.Pending(1, 50).has_value()) << "a later access must re-fetch";
  EXPECT_FALSE(t.Invalidate(1)) << "nothing left to invalidate";
  EXPECT_FALSE(t.Invalidate(42));
}

TEST(InflightTest, ClaimTicketConsumesOnlyTheMatchingFill) {
  InflightTable t;
  const uint64_t ticket = t.Insert(1, 100);
  EXPECT_FALSE(t.ClaimTicket(1, ticket + 1)) << "wrong ticket must not claim";
  EXPECT_TRUE(t.ClaimTicket(1, ticket));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.ClaimTicket(1, ticket)) << "a ticket claims at most once";
}

TEST(InflightTest, DeleteThenRefetchInvalidatesTheOldTicket) {
  // The event engine's deferred admission claims its ticket at completion
  // time; a DELETE (Erase) followed by a fresh fetch must leave the old
  // fill's ticket dead while the new fill's ticket stays claimable.
  InflightTable t;
  const uint64_t old_ticket = t.Insert(1, 100);
  t.Erase(1);  // DELETE arrives mid-flight
  const uint64_t new_ticket = t.Insert(1, 200);
  EXPECT_NE(new_ticket, old_ticket);
  EXPECT_FALSE(t.ClaimTicket(1, old_ticket)) << "stale fill must not admit";
  EXPECT_TRUE(t.ClaimTicket(1, new_ticket));
}

// The map-based InflightTable the FlatIndex rows replaced, kept as the
// reference its replacement must match call for call.
class MapInflightTable {
 public:
  uint64_t Insert(ObjectId id, SimTime completion) {
    const uint64_t ticket = next_ticket_++;
    ++inserts;
    auto [it, inserted] = pending_.try_emplace(id, Entry{completion, ticket});
    if (!inserted && completion > it->second.completion) {
      it->second = {completion, ticket};
    }
    return it->second.ticket;
  }
  std::optional<SimTime> Pending(ObjectId id, SimTime now) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) {
      return std::nullopt;
    }
    if (it->second.completion <= now) {
      pending_.erase(it);
      return std::nullopt;
    }
    ++coalesced;
    return it->second.completion;
  }
  void Erase(ObjectId id) { pending_.erase(id); }
  bool Invalidate(ObjectId id) {
    const bool removed = pending_.erase(id) > 0;
    invalidated += removed ? 1 : 0;
    return removed;
  }
  bool ClaimTicket(ObjectId id, uint64_t ticket) {
    const auto it = pending_.find(id);
    if (it == pending_.end() || it->second.ticket != ticket) {
      return false;
    }
    pending_.erase(it);
    return true;
  }
  size_t size() const { return pending_.size(); }
  void Sweep(SimTime now) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.completion <= now) {
        it = pending_.erase(it);
        ++swept;
      } else {
        ++it;
      }
    }
  }

  uint64_t inserts = 0;
  uint64_t coalesced = 0;
  uint64_t swept = 0;
  uint64_t invalidated = 0;

 private:
  struct Entry {
    SimTime completion;
    uint64_t ticket;
  };
  std::unordered_map<ObjectId, Entry> pending_;
  uint64_t next_ticket_ = 1;
};

TEST(InflightTest, MatchesMapBasedTableOnRandomStreams) {
  for (const uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    obs::MetricsRegistry registry;
    InflightTable t;
    t.RegisterMetrics(&registry);
    MapInflightTable ref;
    Rng rng(seed);
    ZipfSampler zipf(500, 0.7);
    std::vector<std::pair<ObjectId, uint64_t>> tickets;  // recent fills
    SimTime now = 0;
    for (int step = 0; step < 20'000; ++step) {
      now += static_cast<SimTime>(rng.NextBounded(4));
      const ObjectId id = zipf.Sample(rng);
      const uint64_t h = Mix64(id);
      const bool prehashed = (step & 1) != 0;
      const uint64_t roll = rng.NextBounded(100);
      if (roll < 35) {
        const SimTime completion = now + 1 + static_cast<SimTime>(rng.NextBounded(200));
        const uint64_t got =
            prehashed ? t.InsertPrehashed(id, h, completion) : t.Insert(id, completion);
        ASSERT_EQ(got, ref.Insert(id, completion)) << "step " << step;
        tickets.emplace_back(id, got);
      } else if (roll < 75) {
        const auto got = prehashed ? t.PendingPrehashed(id, h, now) : t.Pending(id, now);
        ASSERT_EQ(got, ref.Pending(id, now)) << "step " << step;
      } else if (roll < 82) {
        if (prehashed) {
          t.ErasePrehashed(id, h);
        } else {
          t.Erase(id);
        }
        ref.Erase(id);
      } else if (roll < 89) {
        const bool got = prehashed ? t.InvalidatePrehashed(id, h) : t.Invalidate(id);
        ASSERT_EQ(got, ref.Invalidate(id)) << "step " << step;
      } else if (roll < 98) {
        if (!tickets.empty()) {
          // Recent tickets, stale ones included.
          const auto [claim_id, ticket] =
              tickets[tickets.size() - 1 - rng.NextBounded(std::min<size_t>(tickets.size(), 8))];
          const bool got = prehashed ? t.ClaimTicketPrehashed(claim_id, Mix64(claim_id), ticket)
                                     : t.ClaimTicket(claim_id, ticket);
          ASSERT_EQ(got, ref.ClaimTicket(claim_id, ticket)) << "step " << step;
        }
      } else {
        t.Sweep(now);
        ref.Sweep(now);
      }
      ASSERT_EQ(t.size(), ref.size()) << "step " << step;
      ASSERT_EQ(registry.CounterValue("inflight", "inserts"), ref.inserts);
      ASSERT_EQ(registry.CounterValue("inflight", "coalesced"), ref.coalesced);
      ASSERT_EQ(registry.CounterValue("inflight", "swept"), ref.swept);
      ASSERT_EQ(registry.CounterValue("inflight", "invalidated"), ref.invalidated);
    }
    EXPECT_GT(ref.swept, 0u);
    EXPECT_GT(ref.coalesced, 0u);
  }
}

}  // namespace
}  // namespace macaron
