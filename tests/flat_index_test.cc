// Property tests for the FlatIndex cache-core hash table.
//
// The SIMD group-probing rewrite must behave exactly like a plain map (and
// exactly like its own scalar fallback) through arbitrary operation mixes,
// including the shapes that stress the two-level layout: probe clusters
// crossing 16-byte group boundaries, clusters wrapping past the end of the
// table (the tag mirror region), tag collisions between distinct keys,
// distinct keys whose hashes share all 32 cached bits (the cells hold no
// key, so only the caller's key source tells them apart), and
// backward-shift deletion inside all of those. Crafted-hash tests pin each
// shape deterministically; the fuzz tests then drive randomized
// Insert/Erase/Find/Reserve/Clear mixes against a reference
// std::unordered_map, simultaneously through the public (possibly
// vectorized) entry points and the *Scalar reference entry points. The
// whole file runs unchanged in the -DMACARON_SIMD=OFF lane, where both
// paths compile to the same scalar code.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/cache/slab_lru.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace macaron {
namespace {

// Key source over a value -> key table, the way the index's callers keep
// each key in the row its value names.
struct TableKeys {
  const std::vector<ObjectId>* keys;
  ObjectId operator()(uint32_t value) const { return (*keys)[value]; }
};

// --- Reserve / capacity guard ---

TEST(FlatIndexCapacityTest, CapacityForSmallSizes) {
  EXPECT_EQ(FlatIndex::CapacityFor(0), 16u);
  EXPECT_EQ(FlatIndex::CapacityFor(1), 16u);
  EXPECT_EQ(FlatIndex::CapacityFor(4), 16u);
  EXPECT_EQ(FlatIndex::CapacityFor(5), 16u);
  EXPECT_EQ(FlatIndex::CapacityFor(8), 16u);
  EXPECT_EQ(FlatIndex::CapacityFor(9), 32u);  // 9 * 2 = 18 -> 32
  EXPECT_EQ(FlatIndex::CapacityFor(64), 128u);
  EXPECT_EQ(FlatIndex::CapacityFor(1000), 2048u);
}

TEST(FlatIndexCapacityTest, CapacityIsAlwaysAPowerOfTwoAtHalfLoad) {
  for (size_t n = 0; n < 3000; ++n) {
    const size_t cap = FlatIndex::CapacityFor(n);
    EXPECT_EQ(cap & (cap - 1), 0u) << n;
    EXPECT_GE(cap, n * 2) << n;
    if (cap > 16) {
      EXPECT_LT(cap / 2, n * 2) << n;  // and the smallest such table
    }
  }
}

TEST(FlatIndexCapacityTest, CapacityForGuardsOverflowAndCapsAtTwoPow32) {
  // n * 2 would wrap size_t for these; the guard must cap instead of
  // spinning or rehashing to a bogus size.
  EXPECT_EQ(FlatIndex::CapacityFor(SIZE_MAX), FlatIndex::kMaxCapacity);
  EXPECT_EQ(FlatIndex::CapacityFor(SIZE_MAX / 2), FlatIndex::kMaxCapacity);
  EXPECT_EQ(FlatIndex::CapacityFor(1ull << 62), FlatIndex::kMaxCapacity);
  // The cap engages exactly where half load would first exceed 2^32.
  EXPECT_EQ(FlatIndex::CapacityFor(1ull << 30), 1ull << 31);
  EXPECT_EQ(FlatIndex::CapacityFor((1ull << 31) - 1), 1ull << 32);
  EXPECT_EQ(FlatIndex::CapacityFor(1ull << 31), FlatIndex::kMaxCapacity);
  EXPECT_EQ(FlatIndex::CapacityFor((1ull << 31) + 1), FlatIndex::kMaxCapacity);
}

TEST(FlatIndexCapacityTest, InsertGrowsOnlyPastHalfLoad) {
  FlatIndex index;
  EXPECT_EQ(index.capacity(), 0u);
  for (ObjectId key = 0; key < 64; ++key) {
    index.EmplacePrehashed(Mix64(key), static_cast<uint32_t>(key));
    // The table doubles when one more entry would pass load 1/2.
    EXPECT_EQ(index.capacity(), FlatIndex::CapacityFor(index.size())) << key;
  }
  EXPECT_EQ(index.capacity(), 128u);  // 64 live: exactly half full
  index.EmplacePrehashed(Mix64(64), 64);
  EXPECT_EQ(index.capacity(), 256u);
  index.Reserve(100);  // already fits
  EXPECT_EQ(index.capacity(), 256u);
}

// --- Crafted probe-cluster shapes ---
//
// Reserve(120) fixes the capacity at 256 (mask 255) as long as at most 128
// keys are live, so a crafted hash's low 8 bits choose the home slot
// directly and bits 25..31 choose the tag byte.

constexpr size_t kMask = 255;

uint64_t CraftHash(uint64_t home, uint64_t tag) {
  return (tag << 25) | home;
}

struct Crafted {
  FlatIndex index;
  std::vector<std::pair<ObjectId, uint64_t>> live;  // (key, hash)
  std::vector<ObjectId> key_of_value{0};            // values start at 1
  uint32_t next_value = 1;

  Crafted() { index.Reserve(120); }

  TableKeys Keys() const { return TableKeys{&key_of_value}; }

  void Insert(ObjectId key, uint64_t home, uint64_t tag) {
    const uint64_t h = CraftHash(home, tag);
    key_of_value.push_back(key);
    index.EmplacePrehashed(h, next_value++);
    live.emplace_back(key, h);
  }

  void Erase(ObjectId key) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->first == key) {
        EXPECT_NE(index.ErasePrehashed(key, it->second, Keys()), FlatIndex::kEmpty);
        live.erase(it);
        return;
      }
    }
    FAIL() << "erasing key not inserted: " << key;
  }

  // Every live key findable (via both probe paths), a sweep of absent keys
  // not findable from any home slot in the cluster's range.
  void Verify() {
    EXPECT_EQ(index.size(), live.size());
    for (const auto& [key, h] : live) {
      EXPECT_NE(index.FindPrehashed(key, h, Keys()), FlatIndex::kEmpty) << key;
      EXPECT_EQ(index.FindPrehashed(key, h, Keys()), index.FindPrehashedScalar(key, h, Keys()))
          << key;
    }
    for (uint64_t home = 0; home <= kMask; home += 5) {
      for (uint64_t tag = 0; tag < 4; ++tag) {
        const uint64_t h = CraftHash(home, tag);
        EXPECT_EQ(index.FindPrehashed(999999, h, Keys()), FlatIndex::kEmpty);
        EXPECT_EQ(index.FindPrehashedScalar(999999, h, Keys()), FlatIndex::kEmpty);
      }
    }
  }
};

TEST(FlatIndexClusterTest, ClusterAcrossGroupBoundary) {
  Crafted t;
  // 12 keys homed at slot 13 spill across the 16-aligned group boundary.
  for (ObjectId key = 1; key <= 12; ++key) {
    t.Insert(key, 13, /*tag=*/key % 3);
  }
  t.Verify();
  // Backward-shift from the middle pulls entries back across the boundary.
  t.Erase(3);
  t.Erase(7);
  t.Verify();
  t.Erase(1);  // the home-slot entry itself
  t.Verify();
}

TEST(FlatIndexClusterTest, ClusterWrapsAroundTableEnd) {
  Crafted t;
  // 14 keys homed at 250 wrap past slot 255 into the mirrored low slots.
  for (ObjectId key = 1; key <= 14; ++key) {
    t.Insert(key, 250, /*tag=*/key % 2);
  }
  t.Verify();
  // Erase on both sides of the wrap point; the shift walk crosses it.
  t.Erase(2);
  t.Verify();
  t.Erase(10);
  t.Erase(14);
  t.Verify();
  for (ObjectId key = 1; key <= 14; ++key) {
    if (key != 2 && key != 10 && key != 14) {
      t.Erase(key);
    }
  }
  t.Verify();
  EXPECT_TRUE(t.index.empty());
}

TEST(FlatIndexClusterTest, FullTableAtHalfLoadWithWrappingCluster) {
  Crafted t;
  // 40 keys homed at 240 fill slots 240..255 and wrap into 0..23; 88 more,
  // each homed at its own slot in 24..111, extend the same physical
  // cluster. 128 live keys is the most 256 cells hold at load 1/2.
  ObjectId key = 1;
  for (; key <= 40; ++key) {
    t.Insert(key, 240, /*tag=*/key % 3);
  }
  for (uint64_t home = 24; home < 112; ++home, ++key) {
    t.Insert(key, home, /*tag=*/key % 4);
  }
  ASSERT_EQ(t.index.size(), 128u);
  EXPECT_EQ(t.index.capacity(), 256u);
  t.Verify();
  // Erase from the middle of the run on both sides of the table end (key
  // 10 sits in slot 249, key 33 in slot 16): each shift walk runs on
  // through the 88 entries at their homes, which must not move.
  t.Erase(10);
  t.Erase(33);
  t.Verify();
  t.Erase(1);  // the entry in the home slot itself
  t.Verify();
  t.Erase(60);  // a home-slot entry inside the long tail
  t.Verify();
  EXPECT_EQ(t.index.capacity(), 256u);
}

TEST(FlatIndexClusterTest, TagCollisionsNeedKeyCompare) {
  Crafted t;
  // Same home, same tag: group probing sees every slot as a candidate and
  // must fall through to the full key compare.
  for (ObjectId key = 1; key <= 10; ++key) {
    t.Insert(key, 40, /*tag=*/7);
  }
  t.Verify();
  // An absent key with the colliding (home, tag) walks the whole cluster.
  const uint64_t h = CraftHash(40, 7);
  EXPECT_EQ(t.index.FindPrehashed(77, h, t.Keys()), FlatIndex::kEmpty);
  EXPECT_EQ(t.index.FindPrehashedScalar(77, h, t.Keys()), FlatIndex::kEmpty);
  t.Erase(5);
  t.Verify();
}

// Cells hold no key, so two keys whose hashes agree on all 32 cached bits
// (natural Mix64 hashes collide so about once per 2^32 pairs: a few times
// in a 241 k-object trace) are told apart only by reading each candidate's
// key from the key source.
TEST(FlatIndexClusterTest, KeysSharingAllCachedHashBitsNeedKeyCompare) {
  const ObjectId a = 11;
  const ObjectId b = 22;
  const ObjectId absent = 33;
  const uint64_t low = Mix64(a) & 0xffffffffull;
  const uint64_t ha = Mix64(a);
  const uint64_t hb = (Mix64(b) & ~0xffffffffull) | low;  // same low 32 bits, other high bits
  const uint64_t habsent = (Mix64(absent) & ~0xffffffffull) | low;
  ASSERT_NE(ha, hb);
  const std::vector<ObjectId> keys = {a, b};  // value -> key
  const TableKeys key_of{&keys};
  FlatIndex simd;
  FlatIndex scalar;
  simd.EmplacePrehashed(ha, 0);
  simd.EmplacePrehashed(hb, 1);
  scalar.EmplacePrehashedScalar(ha, 0);
  scalar.EmplacePrehashedScalar(hb, 1);
  for (const FlatIndex* index : {&simd, &scalar}) {
    EXPECT_EQ(index->FindPrehashed(a, ha, key_of), 0u);
    EXPECT_EQ(index->FindPrehashed(b, hb, key_of), 1u);
    EXPECT_EQ(index->FindPrehashed(absent, habsent, key_of), FlatIndex::kEmpty);
    EXPECT_EQ(index->FindPrehashedScalar(a, ha, key_of), 0u);
    EXPECT_EQ(index->FindPrehashedScalar(b, hb, key_of), 1u);
    EXPECT_EQ(index->FindPrehashedScalar(absent, habsent, key_of), FlatIndex::kEmpty);
  }
  // Erasing the first key leaves the second, which the shift moved home.
  EXPECT_EQ(simd.ErasePrehashed(a, ha, key_of), 0u);
  EXPECT_EQ(scalar.ErasePrehashedScalar(a, ha, key_of), 0u);
  for (const FlatIndex* index : {&simd, &scalar}) {
    EXPECT_EQ(index->FindPrehashed(a, ha, key_of), FlatIndex::kEmpty);
    EXPECT_EQ(index->FindPrehashed(b, hb, key_of), 1u);
    EXPECT_EQ(index->FindPrehashedScalar(b, hb, key_of), 1u);
  }
}

TEST(FlatIndexClusterTest, InterleavedHomesShiftOnlyEligibleEntries) {
  Crafted t;
  // Entries with different homes interleaved into one physical cluster:
  // deletion must shift only those whose home precedes the hole.
  t.Insert(1, 100, 1);
  t.Insert(2, 100, 2);
  t.Insert(3, 101, 3);  // displaced to 102 by key 2
  t.Insert(4, 102, 1);  // displaced to 103
  t.Insert(5, 101, 2);  // displaced to 104
  t.Verify();
  t.Erase(2);  // hole at 101: key 3 (home 101) may move, key 4 (home 102) must not pass its home
  t.Verify();
  t.Erase(1);
  t.Verify();
  for (const auto& [key, h] : std::vector<std::pair<ObjectId, uint64_t>>(t.live)) {
    (void)h;
    t.Erase(key);
  }
  t.Verify();
}

// --- Randomized differential fuzzing vs std::unordered_map ---

// One fuzz step mix, shared by the configs below. Drives two FlatIndex
// instances — `simd` through the public entry points, `scalar` through the
// *Scalar reference entry points — in lockstep against a std::unordered_map,
// then cross-checks all three (both probe paths on both instances).
class FuzzHarness {
 public:
  using HashFn = uint64_t (*)(ObjectId);

  FuzzHarness(uint64_t seed, HashFn hash_fn, size_t max_live)
      : rng_(seed), hash_fn_(hash_fn), max_live_(max_live) {}

  void Run(size_t steps) {
    for (size_t step = 0; step < steps; ++step) {
      const uint64_t action = rng_.NextU64() % 100;
      if (action < 45) {
        InsertRandom();
      } else if (action < 75) {
        EraseRandom();
      } else if (action < 95) {
        FindRandom();
      } else if (action < 98) {
        EraseAbsent();
      } else if (action < 99 && reference_.size() < max_live_ / 2) {
        // Force a rehash mid-run (both instances; layout must re-converge).
        const size_t target = reference_.size() * 8 + 64;
        simd_.Reserve(target);
        scalar_.Reserve(target);
      } else if (action == 99) {
        simd_.Clear();
        scalar_.Clear();
        reference_.clear();
      }
      if (step % 512 == 0 || step + 1 == steps) {
        VerifyAll();
      }
    }
    VerifyAll();
  }

 private:
  void InsertRandom() {
    if (reference_.size() >= max_live_) {
      return;
    }
    const ObjectId key = rng_.NextU64() % key_space_;
    if (reference_.count(key) != 0) {
      return;
    }
    const uint32_t value = next_value_++;
    key_of_value_.push_back(key);
    simd_.EmplacePrehashed(hash_fn_(key), value);
    scalar_.EmplacePrehashedScalar(hash_fn_(key), value);
    reference_.emplace(key, value);
  }

  void EraseRandom() {
    if (reference_.empty()) {
      return;
    }
    // Deterministic pseudo-random victim: first reference key at or after a
    // random probe point in the key space.
    ObjectId key = rng_.NextU64() % key_space_;
    for (size_t i = 0; i < key_space_; ++i, key = (key + 1) % key_space_) {
      if (reference_.count(key) != 0) {
        break;
      }
    }
    const uint32_t value = reference_.at(key);
    EXPECT_EQ(simd_.ErasePrehashed(key, hash_fn_(key), Keys()), value);
    EXPECT_EQ(scalar_.ErasePrehashedScalar(key, hash_fn_(key), Keys()), value);
    reference_.erase(key);
  }

  void EraseAbsent() {
    const ObjectId key = key_space_ + (rng_.NextU64() % key_space_);
    EXPECT_EQ(simd_.ErasePrehashed(key, hash_fn_(key), Keys()), FlatIndex::kEmpty);
    EXPECT_EQ(scalar_.ErasePrehashedScalar(key, hash_fn_(key), Keys()), FlatIndex::kEmpty);
  }

  void FindRandom() {
    const ObjectId key = rng_.NextU64() % (2 * key_space_);
    CheckKey(key);
  }

  void CheckKey(ObjectId key) {
    const uint64_t h = hash_fn_(key);
    const auto it = reference_.find(key);
    const uint32_t want = it == reference_.end() ? FlatIndex::kEmpty : it->second;
    EXPECT_EQ(simd_.FindPrehashed(key, h, Keys()), want) << key;
    EXPECT_EQ(simd_.FindPrehashedScalar(key, h, Keys()), want) << key;
    EXPECT_EQ(scalar_.FindPrehashed(key, h, Keys()), want) << key;
    EXPECT_EQ(scalar_.FindPrehashedScalar(key, h, Keys()), want) << key;
  }

  void VerifyAll() {
    ASSERT_EQ(simd_.size(), reference_.size());
    ASSERT_EQ(scalar_.size(), reference_.size());
    for (const auto& [key, value] : reference_) {
      (void)value;
      CheckKey(key);
    }
    // A band of absent keys, hashed into the same domain as the live ones.
    for (ObjectId key = key_space_; key < key_space_ + 64; ++key) {
      CheckKey(key);
    }
  }

  TableKeys Keys() const { return TableKeys{&key_of_value_}; }

  Rng rng_;
  HashFn hash_fn_;
  const size_t max_live_;
  const size_t key_space_ = 4096;
  uint32_t next_value_ = 0;
  std::vector<ObjectId> key_of_value_;  // indexed by value
  FlatIndex simd_;
  FlatIndex scalar_;
  std::unordered_map<ObjectId, uint32_t> reference_;
};

uint64_t NaturalHash(ObjectId key) { return Mix64(key); }

// Concentrates home slots into three narrow bands — the low slots (tag
// mirror region), a band straddling a group boundary, and the top of the
// table (wrap-around) — and uses only four distinct tags, so clusters are
// long, cross groups and the wrap point, and are full of tag collisions.
uint64_t ClusteredHash(ObjectId key) {
  const uint64_t h = Mix64(key);
  const uint64_t band = h % 3;
  const uint64_t offset = (h >> 8) % 16;
  const uint64_t home = band == 0 ? offset : band == 1 ? 120 + offset : 240 + offset;
  const uint64_t tag = (h >> 16) % 4;
  // Keep high bits so growth past 256 slots redistributes like a real hash.
  return (h & 0xffffffff00000000ull) | (tag << 25) | home;
}

TEST(FlatIndexFuzzTest, MatchesReferenceMapNaturalHashes) {
  FuzzHarness fuzz(/*seed=*/0x5eed0001, NaturalHash, /*max_live=*/1500);
  fuzz.Run(30000);
}

TEST(FlatIndexFuzzTest, MatchesReferenceMapClusteredHashes) {
  // Live cap 112 keeps the table at 256 slots (half load trips at 128), so
  // the crafted bands stay put; Reserve/Clear steps still move it around.
  FuzzHarness fuzz(/*seed=*/0x5eed0002, ClusteredHash, /*max_live=*/112);
  fuzz.Run(40000);
}

TEST(FlatIndexFuzzTest, MatchesReferenceMapClusteredHashesSecondSeed) {
  FuzzHarness fuzz(/*seed=*/0x5eed0003, ClusteredHash, /*max_live=*/112);
  fuzz.Run(40000);
}

// --- Slab-backed fuzzing: backlinks through shifts and rehashes ---

TEST(FlatIndexFuzzTest, SlabBacklinksStayConsistent) {
  Rng rng(0x5eed0004);
  NodeSlab slab;
  FlatIndex index;
  std::unordered_map<ObjectId, uint32_t> reference;  // key -> slab slot
  const size_t key_space = 512;

  for (size_t step = 0; step < 20000; ++step) {
    const uint64_t action = rng.NextU64() % 100;
    const ObjectId key = rng.NextU64() % key_space;
    const uint64_t h = ClusteredHash(key);
    if (action < 50) {
      if (reference.count(key) == 0) {
        const uint32_t slot = slab.Allocate(key, /*size=*/1);
        index.EmplacePrehashed(h, slot, &slab);
        reference.emplace(key, slot);
      }
    } else if (action < 80) {
      const auto it = reference.find(key);
      if (it != reference.end()) {
        if (action % 2 == 0) {
          // Erase through the backlink, as eviction does: zero probing. A
          // stale backlink (missed during a shift or rehash) erases the
          // wrong entry and surfaces as a reference mismatch below.
          index.EraseCell(slab.node(it->second).cell, &slab);
        } else {
          const auto slab_keys = [&slab](uint32_t v) { return slab.node(v).id; };
          EXPECT_EQ(index.ErasePrehashed(key, h, slab_keys, &slab), it->second);
        }
        slab.Free(it->second);
        reference.erase(it);
      }
    } else if (action < 99) {
      const auto it = reference.find(key);
      const uint32_t want = it == reference.end() ? FlatIndex::kEmpty : it->second;
      ASSERT_EQ(index.FindPrehashed(key, h, slab), want);
    } else if (reference.size() < 64) {
      index.Reserve(reference.size() * 8 + 64, &slab);  // rehash moves every backlink
    }
    if (step % 1024 == 0) {
      ASSERT_EQ(index.size(), reference.size());
      for (const auto& [k, slot] : reference) {
        ASSERT_EQ(index.FindPrehashed(k, ClusteredHash(k), slab), slot);
        ASSERT_EQ(slab.node(slot).id, k);
      }
    }
  }
  // Drain through backlinks only.
  for (const auto& [k, slot] : reference) {
    (void)k;
    index.EraseCell(slab.node(slot).cell, &slab);
    slab.Free(slot);
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(slab.live_nodes(), 0u);
}

// Growth from empty (no Reserve) through several natural rehashes, with the
// scalar mirror riding along.
TEST(FlatIndexFuzzTest, GrowthFromEmptyMatchesScalar) {
  FlatIndex simd;
  FlatIndex scalar;
  const auto keys = [](uint32_t value) { return ObjectId{value}; };  // value == key
  for (ObjectId key = 0; key < 2000; ++key) {
    const uint64_t h = Mix64(key);
    simd.EmplacePrehashed(h, static_cast<uint32_t>(key));
    scalar.EmplacePrehashedScalar(h, static_cast<uint32_t>(key));
  }
  for (ObjectId key = 0; key < 2000; ++key) {
    const uint64_t h = Mix64(key);
    ASSERT_EQ(simd.FindPrehashed(key, h, keys), static_cast<uint32_t>(key));
    ASSERT_EQ(scalar.FindPrehashed(key, h, keys), static_cast<uint32_t>(key));
    ASSERT_EQ(simd.FindPrehashedScalar(key, h, keys), static_cast<uint32_t>(key));
  }
  for (ObjectId key = 2000; key < 2100; ++key) {
    ASSERT_EQ(simd.FindPrehashed(key, Mix64(key), keys), FlatIndex::kEmpty);
    ASSERT_EQ(scalar.FindPrehashed(key, Mix64(key), keys), FlatIndex::kEmpty);
  }
}

}  // namespace
}  // namespace macaron
