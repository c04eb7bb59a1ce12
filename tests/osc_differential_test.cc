// Differential test: the OSC on slot-indexed rows vs the map-based OSC it
// replaced.
//
// ObjectStorageCache keeps each live object's {block, size} in a row
// indexed by its replacement order's slab slot, and a dead copy only in its
// block's member list. The reference below is the previous implementation
// without its metrics and prehashed entry points: a std::unordered_map from
// id to {block, size, live} beside the same order, blocks and GC list. Both
// are driven with the same seeded operation streams (Zipf ids with reuse,
// lognormal sizes, GET with admit-on-miss, PUT, DELETE, capacity eviction
// to random targets, explicit flushes and GC, and re-admission of evicted
// and deleted ids while their dead copies still sit in open or closed
// blocks) and compared after every operation, under every replacement
// policy, with packing on and off and at two block object limits. Both GC
// lists are ordered sets: GC visits due blocks in ascending block id, and a
// different visiting order repacks survivors differently, so the packed
// cases also pin that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/osc/osc.h"

namespace macaron {
namespace {

// The map-based OSC: per-object metadata in a node-based hash map that
// outlives the object's death until GC of the block holding it.
class MapObjectStorageCache {
 public:
  explicit MapObjectStorageCache(const PackingConfig& config)
      : config_(config),
        order_(MakeEvictionCache(config.policy, std::numeric_limits<uint64_t>::max() / 2)) {}

  bool Lookup(ObjectId id) {
    const auto it = objects_.find(id);
    if (it == objects_.end() || !it->second.live) {
      return false;
    }
    order_->Get(id);
    ++ops_.gets;
    return true;
  }

  bool Contains(ObjectId id) const {
    const auto it = objects_.find(id);
    return it != objects_.end() && it->second.live;
  }

  void Admit(ObjectId id, uint64_t size) {
    const auto it = objects_.find(id);
    if (it != objects_.end() && it->second.live) {
      order_->Get(id);
      return;
    }
    AdmitInternal(id, size, /*promote_lru=*/true);
  }

  void Delete(ObjectId id) {
    const auto it = objects_.find(id);
    if (it == objects_.end() || !it->second.live) {
      return;
    }
    order_->Erase(id);
    live_bytes_ -= it->second.size;
    MarkDead(id);
  }

  void FlushOpenBlock() {
    if (open_block_ == 0) {
      return;
    }
    const uint64_t block_id = open_block_;
    BlockMeta& block = blocks_.at(block_id);
    open_block_ = 0;
    if (block.objects == 0) {
      blocks_.erase(block_id);
      return;
    }
    block.open = false;
    ++ops_.puts;
    MaybeScheduleGc(block_id);
  }

  void EvictToCapacity(uint64_t target_bytes) {
    if (live_bytes_ > target_bytes) {
      std::vector<ObjectId> victims;
      order_->set_evict_callback(
          [&victims](ObjectId id, uint64_t, uint32_t) { victims.push_back(id); });
      order_->Resize(target_bytes);
      order_->Resize(std::numeric_limits<uint64_t>::max() / 2);
      order_->set_evict_callback(nullptr);
      for (ObjectId id : victims) {
        const ObjectMeta& meta = objects_.at(id);
        live_bytes_ -= meta.size;
        MarkDead(id);
        if (evict_observer_) {
          evict_observer_(id);
        }
      }
    }
    RunGc();
  }

  void RunGc() {
    while (!gc_list_.empty()) {
      std::set<uint64_t> batch;
      batch.swap(gc_list_);
      for (uint64_t block_id : batch) {
        const auto it = blocks_.find(block_id);
        if (it == blocks_.end() || it->second.open) {
          continue;
        }
        ++ops_.gc_block_reads;
        garbage_bytes_ -= it->second.dead_bytes;
        std::vector<ObjectId> members = std::move(it->second.members);
        blocks_.erase(it);
        for (ObjectId id : members) {
          const auto oit = objects_.find(id);
          if (oit == objects_.end()) {
            continue;
          }
          if (oit->second.block != block_id) {
            continue;
          }
          if (oit->second.live) {
            AdmitInternal(id, oit->second.size, /*promote_lru=*/false);
          } else {
            objects_.erase(oit);
          }
        }
      }
    }
  }

  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t garbage_bytes() const { return garbage_bytes_; }
  uint64_t stored_bytes() const { return live_bytes_ + garbage_bytes_; }
  size_t num_live_objects() const { return order_->num_entries(); }
  size_t num_blocks() const { return blocks_.size(); }
  size_t gc_pending_blocks() const { return gc_list_.size(); }

  ObjectStorageCache::OpCounts TakeOps() {
    const ObjectStorageCache::OpCounts out = ops_;
    ops_ = ObjectStorageCache::OpCounts{};
    return out;
  }

  std::vector<ObjectStorageCache::BlockDebug> DebugBlocks() const {
    std::vector<ObjectStorageCache::BlockDebug> out;
    for (const auto& [id, block] : blocks_) {
      out.push_back(ObjectStorageCache::BlockDebug{block.bytes, block.dead_bytes, block.objects,
                                                   block.dead_objects, block.open});
    }
    return out;
  }

  void ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
    order_->ForEachHotOrder(fn);
  }

  void set_evict_observer(std::function<void(ObjectId)> observer) {
    evict_observer_ = std::move(observer);
  }

 private:
  struct ObjectMeta {
    uint64_t block = 0;
    uint64_t size = 0;
    bool live = false;
  };

  struct BlockMeta {
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint32_t objects = 0;
    uint32_t dead_objects = 0;
    bool open = false;
    std::vector<ObjectId> members;
  };

  void AdmitInternal(ObjectId id, uint64_t size, bool promote_lru) {
    if (!config_.packing_enabled) {
      const uint64_t block_id = next_block_++;
      BlockMeta& block = blocks_[block_id];
      block.open = false;
      block.bytes = size;
      block.objects = 1;
      block.members.push_back(id);
      objects_[id] = ObjectMeta{block_id, size, true};
      ++ops_.puts;
      if (promote_lru) {
        order_->Put(id, size);
        live_bytes_ += size;
      }
      return;
    }
    if (open_block_ == 0) {
      open_block_ = next_block_++;
      blocks_[open_block_].open = true;
    }
    BlockMeta& block = blocks_[open_block_];
    block.members.push_back(id);
    block.bytes += size;
    ++block.objects;
    objects_[id] = ObjectMeta{open_block_, size, true};
    if (promote_lru) {
      order_->Put(id, size);
      live_bytes_ += size;
    }
    if (block.objects >= config_.max_objects_per_block || block.bytes >= config_.block_bytes) {
      FlushOpenBlock();
    }
  }

  void MarkDead(ObjectId id) {
    ObjectMeta& meta = objects_.at(id);
    MACARON_CHECK(meta.live);
    meta.live = false;
    garbage_bytes_ += meta.size;
    BlockMeta& block = blocks_.at(meta.block);
    block.dead_bytes += meta.size;
    ++block.dead_objects;
    MaybeScheduleGc(meta.block);
  }

  void MaybeScheduleGc(uint64_t block_id) {
    const auto it = blocks_.find(block_id);
    if (it == blocks_.end() || it->second.open || it->second.bytes == 0) {
      return;
    }
    const double dead_fraction =
        static_cast<double>(it->second.dead_bytes) / static_cast<double>(it->second.bytes);
    if (dead_fraction >= config_.gc_dead_fraction) {
      gc_list_.insert(block_id);
    }
  }

  PackingConfig config_;
  std::unordered_map<ObjectId, ObjectMeta> objects_;
  std::unordered_map<uint64_t, BlockMeta> blocks_;
  std::set<uint64_t> gc_list_;
  std::unique_ptr<EvictionCache> order_;
  uint64_t open_block_ = 0;
  uint64_t next_block_ = 1;
  uint64_t live_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;
  ObjectStorageCache::OpCounts ops_;
  std::function<void(ObjectId)> evict_observer_;
};

using BlockKey = std::tuple<uint64_t, uint64_t, uint32_t, uint32_t, bool>;

template <typename Osc>
std::vector<BlockKey> SortedBlocks(const Osc& osc) {
  std::vector<BlockKey> out;
  for (const ObjectStorageCache::BlockDebug& b : osc.DebugBlocks()) {
    out.emplace_back(b.bytes, b.dead_bytes, b.objects, b.dead_objects, b.open);
  }
  std::sort(out.begin(), out.end());
  return out;
}

template <typename Osc>
std::vector<std::pair<ObjectId, uint64_t>> HotOrder(const Osc& osc) {
  std::vector<std::pair<ObjectId, uint64_t>> out;
  osc.ForEachMruToLru([&](ObjectId id, uint64_t size) {
    out.emplace_back(id, size);
    return true;
  });
  return out;
}

struct DiffConfig {
  EvictionPolicyKind policy;
  bool packing;
  uint32_t max_objects_per_block;
};

// Everything the two implementations expose, compared after each step.
void ExpectSameState(ObjectStorageCache& osc, MapObjectStorageCache& ref, uint64_t step) {
  osc.CheckConsistent();
  ASSERT_EQ(osc.live_bytes(), ref.live_bytes()) << "step " << step;
  ASSERT_EQ(osc.garbage_bytes(), ref.garbage_bytes()) << "step " << step;
  ASSERT_EQ(osc.stored_bytes(), ref.stored_bytes()) << "step " << step;
  ASSERT_EQ(osc.num_live_objects(), ref.num_live_objects()) << "step " << step;
  ASSERT_EQ(osc.num_blocks(), ref.num_blocks()) << "step " << step;
  ASSERT_EQ(osc.gc_pending_blocks(), ref.gc_pending_blocks()) << "step " << step;
  const ObjectStorageCache::OpCounts a = osc.TakeOps();
  const ObjectStorageCache::OpCounts b = ref.TakeOps();
  ASSERT_EQ(a.puts, b.puts) << "step " << step;
  ASSERT_EQ(a.gets, b.gets) << "step " << step;
  ASSERT_EQ(a.gc_block_reads, b.gc_block_reads) << "step " << step;
  ASSERT_EQ(SortedBlocks(osc), SortedBlocks(ref)) << "step " << step;
}

void RunOscDifferential(const DiffConfig& dc, uint64_t seed, uint64_t steps) {
  SCOPED_TRACE(testing::Message() << EvictionPolicyName(dc.policy) << " packing=" << dc.packing
                                  << " max_objects=" << dc.max_objects_per_block
                                  << " seed=" << seed);
  PackingConfig cfg;
  cfg.policy = dc.policy;
  cfg.packing_enabled = dc.packing;
  cfg.max_objects_per_block = dc.max_objects_per_block;
  cfg.block_bytes = 2'000;  // the byte limit closes some blocks before the object limit
  ObjectStorageCache osc(cfg);
  MapObjectStorageCache ref(cfg);
  std::vector<ObjectId> osc_evicted;
  std::vector<ObjectId> ref_evicted;
  osc.set_evict_observer([&](ObjectId id) { osc_evicted.push_back(id); });
  ref.set_evict_observer([&](ObjectId id) { ref_evicted.push_back(id); });

  constexpr uint64_t kObjects = 300;
  Rng rng(seed);
  ZipfSampler zipf(kObjects, 0.8);
  // Median ~90 bytes with a heavy tail, so a few objects fill a block.
  const auto draw_size = [&rng] {
    return 1 + static_cast<uint64_t>(std::min(rng.NextLogNormal(4.5, 1.0), 1'500.0));
  };
  std::vector<ObjectId> dead;  // recently evicted or deleted ids
  const auto note_dead = [&dead](ObjectId id) {
    dead.push_back(id);
    if (dead.size() > 64) {
      dead.erase(dead.begin());
    }
  };

  for (uint64_t step = 0; step < steps; ++step) {
    const ObjectId id = zipf.Sample(rng) + 1;
    const uint64_t roll = rng.NextBounded(100);
    const size_t evicted_before = osc_evicted.size();
    if (roll < 40) {
      // GET with admit-on-miss, alternating the plain and prehashed forms.
      const bool hit = (step & 1) != 0 ? osc.LookupPrehashed(id, Mix64(id)) : osc.Lookup(id);
      ASSERT_EQ(hit, ref.Lookup(id)) << "Lookup(" << id << ") at step " << step;
      if (!hit) {
        const uint64_t size = draw_size();
        osc.AdmitPrehashed(id, Mix64(id), size);
        ref.Admit(id, size);
      }
    } else if (roll < 55) {
      const uint64_t size = draw_size();
      osc.Admit(id, size);
      ref.Admit(id, size);
    } else if (roll < 65) {
      const bool was_live = ref.Contains(id);
      if ((step & 1) != 0) {
        osc.DeletePrehashed(id, Mix64(id));
      } else {
        osc.Delete(id);
      }
      ref.Delete(id);
      if (was_live) {
        note_dead(id);
      }
    } else if (roll < 75) {
      ASSERT_EQ(osc.Contains(id), ref.Contains(id)) << "Contains(" << id << ") at step " << step;
    } else if (roll < 84) {
      // Re-admit a recently dead id: its stale copy may still sit in the
      // open block or in a closed block awaiting GC.
      if (!dead.empty()) {
        const ObjectId back = dead[rng.NextBounded(dead.size())];
        const uint64_t size = draw_size();
        osc.Admit(back, size);
        ref.Admit(back, size);
      }
    } else if (roll < 91) {
      const uint64_t target = rng.NextBounded(ref.live_bytes() + 1);
      osc.EvictToCapacity(target);
      ref.EvictToCapacity(target);
    } else if (roll < 96) {
      osc.FlushOpenBlock();
      ref.FlushOpenBlock();
    } else {
      osc.RunGc();
      ref.RunGc();
    }
    for (size_t i = evicted_before; i < osc_evicted.size(); ++i) {
      note_dead(osc_evicted[i]);
    }
    ASSERT_EQ(osc_evicted, ref_evicted) << "evict observer at step " << step;
    ExpectSameState(osc, ref, step);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(HotOrder(osc), HotOrder(ref));
  EXPECT_FALSE(osc_evicted.empty());
}

class OscDifferentialTest : public testing::TestWithParam<DiffConfig> {};

TEST_P(OscDifferentialTest, MatchesMapBasedOsc) {
  for (const uint64_t seed : {11u, 12u}) {
    RunOscDifferential(GetParam(), seed, 6'000);
  }
}

std::vector<DiffConfig> AllConfigs() {
  std::vector<DiffConfig> out;
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    for (const bool packing : {true, false}) {
      for (const uint32_t max_objects : {4u, 40u}) {
        out.push_back(DiffConfig{policy, packing, max_objects});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyPackingBlock, OscDifferentialTest, testing::ValuesIn(AllConfigs()),
    [](const testing::TestParamInfo<DiffConfig>& info) {
      return std::string(EvictionPolicyName(info.param.policy)) +
             (info.param.packing ? "_packed_" : "_unpacked_") +
             std::to_string(info.param.max_objects_per_block);
    });

// Re-admission into the very block that holds the dead copy, then GC of
// that block: the member list names the id twice and only the live copy
// may be rewritten.
TEST(OscDifferentialTest, ReadmissionInsideOpenBlockThenGc) {
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kFifo, EvictionPolicyKind::kSlru,
        EvictionPolicyKind::kS3Fifo}) {
    SCOPED_TRACE(EvictionPolicyName(policy));
    PackingConfig cfg;
    cfg.policy = policy;
    cfg.block_bytes = 100;
    cfg.max_objects_per_block = 4;
    ObjectStorageCache osc(cfg);
    MapObjectStorageCache ref(cfg);
    const auto both = [&](const std::function<void(ObjectStorageCache&)>& a,
                          const std::function<void(MapObjectStorageCache&)>& b) {
      a(osc);
      b(ref);
      ExpectSameState(osc, ref, 0);
    };
    both([](auto& o) { o.Admit(1, 10); }, [](auto& o) { o.Admit(1, 10); });
    both([](auto& o) { o.Admit(2, 10); }, [](auto& o) { o.Admit(2, 10); });
    both([](auto& o) { o.Delete(1); }, [](auto& o) { o.Delete(1); });
    both([](auto& o) { o.Admit(1, 12); }, [](auto& o) { o.Admit(1, 12); });
    both([](auto& o) { o.EvictToCapacity(12); }, [](auto& o) { o.EvictToCapacity(12); });
    both([](auto& o) { o.Admit(3, 10); }, [](auto& o) { o.Admit(3, 10); });  // flushes
    both([](auto& o) { o.RunGc(); }, [](auto& o) { o.RunGc(); });
    EXPECT_EQ(osc.Contains(1), ref.Contains(1));
    EXPECT_EQ(HotOrder(osc), HotOrder(ref));
  }
}

}  // namespace
}  // namespace macaron
