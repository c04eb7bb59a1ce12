// Tests for the pluggable eviction policies (LRU / FIFO / SLRU / S3-FIFO)
// and their integration with the OSC.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/osc/osc.h"

namespace macaron {
namespace {

const EvictionPolicyKind kAllPolicies[] = {
    EvictionPolicyKind::kLru,
    EvictionPolicyKind::kFifo,
    EvictionPolicyKind::kSlru,
    EvictionPolicyKind::kS3Fifo,
};

// --- Contract tests every policy must satisfy ---

class PolicyContractTest : public testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(PolicyContractTest, MissOnEmptyHitAfterPut) {
  auto cache = MakeEvictionCache(GetParam(), 1000);
  EXPECT_FALSE(cache->Get(1));
  cache->Put(1, 100);
  EXPECT_TRUE(cache->Get(1));
  EXPECT_TRUE(cache->Contains(1));
  EXPECT_EQ(cache->used_bytes(), 100u);
  EXPECT_EQ(cache->num_entries(), 1u);
}

TEST_P(PolicyContractTest, CapacityIsNeverExceeded) {
  auto cache = MakeEvictionCache(GetParam(), 1000);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    cache->Put(rng.NextBounded(500), 1 + rng.NextBounded(200));
    ASSERT_LE(cache->used_bytes(), 1000u) << EvictionPolicyName(GetParam());
  }
}

TEST_P(PolicyContractTest, OversizedObjectRejected) {
  auto cache = MakeEvictionCache(GetParam(), 100);
  cache->Put(1, 50);
  cache->Put(2, 101);
  EXPECT_FALSE(cache->Contains(2));
  EXPECT_TRUE(cache->Contains(1));
}

TEST_P(PolicyContractTest, EraseRemoves) {
  auto cache = MakeEvictionCache(GetParam(), 1000);
  cache->Put(1, 100);
  EXPECT_TRUE(cache->Erase(1));
  EXPECT_FALSE(cache->Erase(1));
  EXPECT_FALSE(cache->Contains(1));
  EXPECT_EQ(cache->used_bytes(), 0u);
}

TEST_P(PolicyContractTest, ResizeShrinkEvicts) {
  auto cache = MakeEvictionCache(GetParam(), 1000);
  for (ObjectId id = 0; id < 10; ++id) {
    cache->Put(id, 100);
  }
  cache->Resize(300);
  EXPECT_LE(cache->used_bytes(), 300u);
  EXPECT_EQ(cache->capacity(), 300u);
}

TEST_P(PolicyContractTest, EvictCallbackAccountsEveryEvictedByte) {
  auto cache = MakeEvictionCache(GetParam(), 500);
  uint64_t evicted_bytes = 0;
  cache->set_evict_callback([&](ObjectId, uint64_t size, uint32_t) { evicted_bytes += size; });
  uint64_t put_bytes = 0;
  for (ObjectId id = 0; id < 50; ++id) {
    cache->Put(id, 50);
    put_bytes += 50;
  }
  EXPECT_EQ(cache->used_bytes() + evicted_bytes, put_bytes);
}

TEST_P(PolicyContractTest, EvictOrderCoversAllEntries) {
  auto cache = MakeEvictionCache(GetParam(), 10000);
  for (ObjectId id = 0; id < 20; ++id) {
    cache->Put(id, 100);
  }
  size_t evict_count = 0;
  cache->ForEachEvictOrder([&](ObjectId, uint64_t) {
    ++evict_count;
    return true;
  });
  size_t hot_count = 0;
  cache->ForEachHotOrder([&](ObjectId, uint64_t) {
    ++hot_count;
    return true;
  });
  EXPECT_EQ(evict_count, 20u);
  EXPECT_EQ(hot_count, 20u);
}

TEST_P(PolicyContractTest, EvictOrderMatchesActualEvictions) {
  // The first entries listed by ForEachEvictOrder are the ones a capacity
  // squeeze actually evicts.
  auto cache = MakeEvictionCache(GetParam(), 10000);
  for (ObjectId id = 0; id < 20; ++id) {
    cache->Put(id, 100);
  }
  for (ObjectId id = 0; id < 20; id += 3) {
    cache->Get(id);
  }
  std::vector<ObjectId> predicted;
  cache->ForEachEvictOrder([&](ObjectId id, uint64_t) {
    predicted.push_back(id);
    return predicted.size() < 5;
  });
  // S3-FIFO promotes re-accessed entries out of the small queue during
  // eviction, so its static listing is an approximation: its victims need
  // only come from the cold prefix of the listing, taken before the squeeze.
  std::vector<ObjectId> cold_prefix;
  cache->ForEachEvictOrder([&](ObjectId id, uint64_t) {
    cold_prefix.push_back(id);
    return cold_prefix.size() < 15;
  });
  ASSERT_EQ(cold_prefix.size(), 15u);
  std::vector<ObjectId> actual;
  cache->set_evict_callback([&](ObjectId id, uint64_t, uint32_t) { actual.push_back(id); });
  cache->Resize(1500);  // force 5 evictions of 100 bytes each
  ASSERT_GE(actual.size(), 5u);
  if (GetParam() == EvictionPolicyKind::kS3Fifo) {
    for (const ObjectId victim : actual) {
      EXPECT_NE(std::find(cold_prefix.begin(), cold_prefix.end(), victim), cold_prefix.end())
          << "victim " << victim;
    }
    return;
  }
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(actual[i], predicted[i]) << EvictionPolicyName(GetParam()) << " pos " << i;
  }
}

// Both walks stop at the visitor's first false, also inside the first queue
// of the two-queue policies (SLRU's probation and protected segments,
// S3-FIFO's small and main queues): a visitor that returns false on its
// k-th call is called exactly k times.
TEST_P(PolicyContractTest, WalksStopAtTheFirstFalse) {
  auto cache = MakeEvictionCache(GetParam(), 1000);
  for (ObjectId id = 0; id < 10; ++id) {
    cache->Put(id, 100);
  }
  for (ObjectId id = 0; id < 10; id += 2) {
    cache->Get(id);  // SLRU protects these; S3-FIFO promotes them on eviction
  }
  for (ObjectId id = 10; id < 14; ++id) {
    cache->Put(id, 100);
  }
  const size_t n = cache->num_entries();
  ASSERT_GE(n, 8u);
  for (const bool evict_order : {true, false}) {
    for (size_t k = 1; k <= n; ++k) {
      size_t calls = 0;
      const EvictionCache::VisitFn stop_at_k = [&](ObjectId, uint64_t) { return ++calls < k; };
      if (evict_order) {
        cache->ForEachEvictOrder(stop_at_k);
      } else {
        cache->ForEachHotOrder(stop_at_k);
      }
      EXPECT_EQ(calls, k) << EvictionPolicyName(GetParam()) << (evict_order ? " evict" : " hot")
                          << " order, k = " << k;
    }
  }
}

TEST_P(PolicyContractTest, KindAndNameRoundTrip) {
  auto cache = MakeEvictionCache(GetParam(), 10);
  EXPECT_EQ(cache->kind(), GetParam());
  EXPECT_NE(std::string(EvictionPolicyName(GetParam())), "unknown");
}

// Owners key per-entry rows by slot (the OSC does): a resident entry's slot
// never changes, an absent id has none, and the eviction callback reports
// the slot the victim held.
TEST_P(PolicyContractTest, SlotStableWhileResidentAndReportedOnEviction) {
  auto cache = MakeEvictionCache(GetParam(), 4000);
  std::unordered_map<ObjectId, uint32_t> slots;  // resident id -> slot at admission
  uint64_t evictions = 0;
  cache->set_evict_callback([&](ObjectId id, uint64_t, uint32_t slot) {
    const auto it = slots.find(id);
    ASSERT_NE(it, slots.end()) << "evicted " << id << " was not resident";
    EXPECT_EQ(slot, it->second) << "victim " << id;
    slots.erase(it);
    ++evictions;
  });
  Rng rng(17);
  ZipfSampler zipf(300, 0.8);
  for (int step = 0; step < 20'000; ++step) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t h = Mix64(id);
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 50) {
      if (!cache->GetPrehashed(id, h)) {
        cache->PutPrehashed(id, h, 20 + rng.NextBounded(200));
        if (cache->ContainsPrehashed(id, h)) {
          slots[id] = cache->SlotOfPrehashed(id, h);
        }
      }
    } else if (roll < 80) {
      const bool resident = cache->ContainsPrehashed(id, h);
      cache->PutPrehashed(id, h, 20 + rng.NextBounded(200));
      if (!resident && cache->ContainsPrehashed(id, h)) {
        slots[id] = cache->SlotOfPrehashed(id, h);
      }
    } else if (roll < 95) {
      if (cache->ErasePrehashed(id, h)) {
        slots.erase(id);
      }
    } else {
      cache->Resize(1000 + rng.NextBounded(4000));
    }
    ASSERT_EQ(cache->num_entries(), slots.size()) << "step " << step;
    if (step % 97 == 0) {
      for (const auto& [resident, slot] : slots) {
        ASSERT_EQ(cache->SlotOfPrehashed(resident, Mix64(resident)), slot) << resident;
      }
    }
    ASSERT_EQ(cache->SlotOfPrehashed(id, h),
              slots.count(id) != 0 ? slots[id] : EvictionCache::kNoSlot);
  }
  EXPECT_GT(evictions, 0u);
}

// TouchOrInsertPrehashed is GetPrehashed, then PutPrehashed on a miss, then
// SlotOfPrehashed (LRU answers it with one probe): two caches of one policy,
// one driven each way, must report the same hit, slot and eviction
// callbacks, and SizeAtSlot must return the size admitted.
TEST_P(PolicyContractTest, TouchOrInsertMatchesGetThenPut) {
  auto fused = MakeEvictionCache(GetParam(), 3000);
  auto split = MakeEvictionCache(GetParam(), 3000);
  struct Eviction {
    ObjectId id;
    uint64_t size;
    uint32_t slot;
    bool operator==(const Eviction&) const = default;
  };
  std::vector<Eviction> fused_evictions;
  std::vector<Eviction> split_evictions;
  fused->set_evict_callback([&](ObjectId id, uint64_t size, uint32_t slot) {
    fused_evictions.push_back({id, size, slot});
  });
  split->set_evict_callback([&](ObjectId id, uint64_t size, uint32_t slot) {
    split_evictions.push_back({id, size, slot});
  });
  Rng rng(29);
  ZipfSampler zipf(200, 0.7);
  uint64_t inserts = 0;
  uint64_t hits = 0;
  for (int step = 0; step < 20'000; ++step) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t h = Mix64(id);
    const uint64_t roll = rng.NextBounded(100);
    // Now and then larger than the capacity, which neither call admits.
    const uint64_t size = rng.NextBounded(500) == 0 ? 5000 : 20 + rng.NextBounded(300);
    if (roll < 70) {
      bool inserted = true;
      const uint32_t slot = fused->TouchOrInsertPrehashed(id, h, size, &inserted);
      const bool hit = split->GetPrehashed(id, h);
      if (!hit) {
        split->PutPrehashed(id, h, size);
      }
      const uint32_t split_slot = split->SlotOfPrehashed(id, h);
      ASSERT_EQ(slot, split_slot) << "step " << step;
      ASSERT_EQ(inserted, !hit && split_slot != EvictionCache::kNoSlot) << "step " << step;
      if (inserted) {
        ASSERT_EQ(fused->SizeAtSlot(slot), size) << "step " << step;
        ++inserts;
      } else if (hit) {
        ASSERT_EQ(fused->SizeAtSlot(slot), split->SizeAtSlot(split_slot)) << "step " << step;
        ++hits;
      }
    } else if (roll < 85) {
      fused->PutPrehashed(id, h, size);
      split->PutPrehashed(id, h, size);
    } else if (roll < 97) {
      ASSERT_EQ(fused->ErasePrehashed(id, h), split->ErasePrehashed(id, h)) << "step " << step;
    } else {
      const uint64_t capacity = 1000 + rng.NextBounded(4000);
      fused->Resize(capacity);
      split->Resize(capacity);
    }
    ASSERT_EQ(fused_evictions, split_evictions) << "step " << step;
    ASSERT_EQ(fused->used_bytes(), split->used_bytes()) << "step " << step;
    ASSERT_EQ(fused->num_entries(), split->num_entries()) << "step " << step;
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_FALSE(fused_evictions.empty());
}

// The tag is the owner's word (the OSC keeps a block slot in it): set once
// after admission, it must read back unchanged however the policy moves the
// entry (hits, resizing refreshes, SLRU promotion and demotion, S3-FIFO's
// small-to-main promotion and second chances), and inside the eviction
// callback the freed victim's slot must still hold it, which is what the
// OSC's EvictToCapacity reads.
TEST_P(PolicyContractTest, TagSurvivesEveryMoveAndReadsBackInTheEvictCallback) {
  auto cache = MakeEvictionCache(GetParam(), 3000);
  std::unordered_map<ObjectId, uint32_t> tags;  // resident id -> tag set at admission
  uint64_t evictions = 0;
  cache->set_evict_callback([&](ObjectId id, uint64_t, uint32_t slot) {
    const auto it = tags.find(id);
    ASSERT_NE(it, tags.end()) << "evicted " << id << " was not resident";
    EXPECT_EQ(cache->TagAtSlot(slot), it->second) << "victim " << id;
    tags.erase(it);
    ++evictions;
  });
  Rng rng(41);
  ZipfSampler zipf(250, 0.9);
  uint32_t next_tag = 1;  // never 0, which a zeroed node would read
  for (int step = 0; step < 30'000; ++step) {
    const ObjectId id = zipf.Sample(rng);
    const uint64_t h = Mix64(id);
    const uint64_t roll = rng.NextBounded(100);
    const uint64_t size = 20 + rng.NextBounded(200);
    if (roll < 60) {
      bool inserted = false;
      const uint32_t slot = cache->TouchOrInsertPrehashed(id, h, size, &inserted);
      if (inserted) {
        EXPECT_EQ(cache->TagAtSlot(slot), 0u) << "an admission starts with tag 0";
        cache->SetTagAtSlot(slot, next_tag);
        tags[id] = next_tag++;
      }
    } else if (roll < 85) {
      const bool resident = cache->ContainsPrehashed(id, h);
      cache->PutPrehashed(id, h, size);  // a refresh at a new size, or an admission
      if (!resident && cache->ContainsPrehashed(id, h)) {
        cache->SetTagAtSlot(cache->SlotOfPrehashed(id, h), next_tag);
        tags[id] = next_tag++;
      }
    } else if (roll < 97) {
      if (cache->ErasePrehashed(id, h)) {
        tags.erase(id);
      }
    } else {
      cache->Resize(1000 + rng.NextBounded(4000));
    }
    ASSERT_EQ(cache->num_entries(), tags.size()) << "step " << step;
    if (step % 101 == 0) {
      for (const auto& [resident, tag] : tags) {
        ASSERT_EQ(cache->TagAtSlot(cache->SlotOfPrehashed(resident, Mix64(resident))), tag)
            << "step " << step << " id " << resident;
      }
    }
  }
  EXPECT_GT(evictions, 1000u);
}

// A slot freed and reused starts with the new entry's policy state, not the
// old entry's (SLRU's segment, S3-FIFO's frequency and queue bit): a cache
// emptied by erasing after a churning stream, which leaves its free slots
// with every kind of stale state, must then behave exactly like a fresh
// cache on a stream of other ids.
TEST_P(PolicyContractTest, ReusedSlotsStartWithFreshPolicyState) {
  auto reused = MakeEvictionCache(GetParam(), 1000);
  auto fresh = MakeEvictionCache(GetParam(), 1000);
  const auto drive = [](EvictionCache& cache, ObjectId first_id, uint64_t seed) {
    Rng rng(seed);
    ZipfSampler zipf(60, 0.9);
    for (int step = 0; step < 3000; ++step) {
      const ObjectId id = first_id + zipf.Sample(rng);
      const uint64_t size = 50 + rng.NextBounded(100);
      if (rng.NextBounded(4) == 0) {
        cache.Put(id, size);
      } else if (!cache.Get(id)) {
        cache.Put(id, size);
      }
    }
  };
  const auto evict_order = [](const EvictionCache& cache) {
    std::vector<ObjectId> order;
    cache.ForEachEvictOrder([&](ObjectId id, uint64_t) {
      order.push_back(id);
      return true;
    });
    return order;
  };
  drive(*reused, 0, 5);
  for (const ObjectId id : evict_order(*reused)) {
    ASSERT_TRUE(reused->Erase(id));
  }
  ASSERT_EQ(reused->used_bytes(), 0u);
  std::vector<std::pair<ObjectId, uint64_t>> reused_evictions;
  std::vector<std::pair<ObjectId, uint64_t>> fresh_evictions;
  reused->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { reused_evictions.emplace_back(id, size); });
  fresh->set_evict_callback(
      [&](ObjectId id, uint64_t size, uint32_t) { fresh_evictions.emplace_back(id, size); });
  drive(*reused, 1000, 6);
  drive(*fresh, 1000, 6);
  EXPECT_EQ(reused_evictions, fresh_evictions);
  EXPECT_GT(fresh_evictions.size(), 100u);
  EXPECT_EQ(reused->used_bytes(), fresh->used_bytes());
  EXPECT_EQ(evict_order(*reused), evict_order(*fresh));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyContractTest, testing::ValuesIn(kAllPolicies),
                         [](const testing::TestParamInfo<EvictionPolicyKind>& info) {
                           return EvictionPolicyName(info.param);
                         });

// --- Policy-specific behaviour ---

TEST(FifoPolicyTest, GetDoesNotPromote) {
  auto cache = MakeEvictionCache(EvictionPolicyKind::kFifo, 300);
  cache->Put(1, 100);
  cache->Put(2, 100);
  cache->Put(3, 100);
  cache->Get(1);      // FIFO ignores recency
  cache->Put(4, 100); // evicts 1 (oldest) despite the Get
  EXPECT_FALSE(cache->Contains(1));
  EXPECT_TRUE(cache->Contains(2));
}

TEST(SlruPolicyTest, ReaccessedEntriesAreProtected) {
  auto cache = MakeEvictionCache(EvictionPolicyKind::kSlru, 1000);
  cache->Put(1, 100);
  cache->Get(1);  // promoted to protected
  // Flood probation.
  for (ObjectId id = 10; id < 30; ++id) {
    cache->Put(id, 100);
  }
  EXPECT_TRUE(cache->Contains(1)) << "protected entry evicted by one-hit wonders";
}

TEST(SlruPolicyTest, OneHitWondersEvictFirst) {
  auto cache = MakeEvictionCache(EvictionPolicyKind::kSlru, 1000);
  for (ObjectId id = 0; id < 5; ++id) {
    cache->Put(id, 100);
    cache->Get(id);
  }
  std::vector<ObjectId> evicted;
  cache->set_evict_callback([&](ObjectId id, uint64_t, uint32_t) { evicted.push_back(id); });
  for (ObjectId id = 100; id < 120; ++id) {
    cache->Put(id, 100);  // scan
  }
  // The scanned (never re-accessed) entries churn through probation; the
  // protected set survives.
  for (ObjectId id = 0; id < 5; ++id) {
    EXPECT_TRUE(cache->Contains(id)) << id;
  }
}

TEST(S3FifoPolicyTest, ScanResistance) {
  auto cache = MakeEvictionCache(EvictionPolicyKind::kS3Fifo, 1000);
  // Establish a hot set that reaches main.
  for (int round = 0; round < 3; ++round) {
    for (ObjectId id = 0; id < 5; ++id) {
      cache->Put(id, 100);
      cache->Get(id);
    }
  }
  // One-pass scan of cold objects.
  for (ObjectId id = 1000; id < 1100; ++id) {
    cache->Put(id, 100);
  }
  int hot_survivors = 0;
  for (ObjectId id = 0; id < 5; ++id) {
    if (cache->Contains(id)) {
      ++hot_survivors;
    }
  }
  EXPECT_GE(hot_survivors, 3) << "hot set should survive a cold scan";
}

TEST(S3FifoPolicyTest, GhostPromotesQuickReadmission) {
  auto cache = MakeEvictionCache(EvictionPolicyKind::kS3Fifo, 1000);
  // Push object 1 through the small queue without reuse -> ghost.
  cache->Put(1, 100);
  for (ObjectId id = 10; id < 40; ++id) {
    cache->Put(id, 100);
  }
  EXPECT_FALSE(cache->Contains(1));
  // Re-admission of a ghost goes straight to main (more protected).
  cache->Put(1, 100);
  EXPECT_TRUE(cache->Contains(1));
  for (ObjectId id = 50; id < 70; ++id) {
    cache->Put(id, 100);  // churn small again
  }
  EXPECT_TRUE(cache->Contains(1)) << "main entry evicted by small-queue churn";
}

TEST(PolicyComparisonTest, LruBeatsFifoOnSkewedWorkload) {
  Rng rng(11);
  ZipfSampler zipf(5000, 1.0);
  auto lru = MakeEvictionCache(EvictionPolicyKind::kLru, 100'000);
  auto fifo = MakeEvictionCache(EvictionPolicyKind::kFifo, 100'000);
  uint64_t lru_hits = 0;
  uint64_t fifo_hits = 0;
  for (int i = 0; i < 100000; ++i) {
    const ObjectId id = zipf.Sample(rng);
    if (lru->Get(id)) {
      ++lru_hits;
    } else {
      lru->Put(id, 1000);
    }
    if (fifo->Get(id)) {
      ++fifo_hits;
    } else {
      fifo->Put(id, 1000);
    }
  }
  EXPECT_GT(lru_hits, fifo_hits);
}

// --- OSC with non-LRU policies ---

class OscPolicyTest : public testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(OscPolicyTest, EvictionAndGcWorkUnderEveryPolicy) {
  PackingConfig cfg;
  cfg.block_bytes = 100;
  cfg.max_objects_per_block = 4;
  cfg.policy = GetParam();
  ObjectStorageCache osc(cfg);
  for (ObjectId id = 1; id <= 40; ++id) {
    osc.Admit(id, 10);
  }
  osc.FlushOpenBlock();
  EXPECT_EQ(osc.live_bytes(), 400u);
  osc.EvictToCapacity(100);
  EXPECT_LE(osc.live_bytes(), 100u);
  EXPECT_EQ(osc.stored_bytes(), osc.live_bytes() + osc.garbage_bytes());
  // Re-admission still works.
  osc.Admit(1000, 10);
  EXPECT_TRUE(osc.Contains(1000));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, OscPolicyTest, testing::ValuesIn(kAllPolicies),
                         [](const testing::TestParamInfo<EvictionPolicyKind>& info) {
                           return EvictionPolicyName(info.param);
                         });

}  // namespace
}  // namespace macaron
