#include "src/osc/osc.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

ObjectStorageCache::ObjectStorageCache(const PackingConfig& config)
    : config_(config),
      order_(MakeEvictionCache(config.policy, std::numeric_limits<uint64_t>::max() / 2)) {
  MACARON_CHECK(config.block_bytes > 0);
  MACARON_CHECK(config.max_objects_per_block > 0);
  MACARON_CHECK(config.gc_dead_fraction > 0.0 && config.gc_dead_fraction <= 1.0);
}

bool ObjectStorageCache::LookupPrehashed(ObjectId id, uint64_t h) {
  MACARON_DCHECK(h == Mix64(id));
  if (!order_->GetPrehashed(id, h)) {  // touch per policy
    return false;
  }
  ++ops_.gets;  // byte-range fetch from the containing block
  return true;
}

bool ObjectStorageCache::Contains(ObjectId id) const { return order_->Contains(id); }

uint64_t ObjectStorageCache::PlaceCopy(ObjectId id, uint64_t size) {
  if (!config_.packing_enabled) {
    // One object per block: write immediately.
    const uint64_t block_id = next_block_++;
    BlockMeta& block = blocks_[block_id];
    block.open = false;
    block.bytes = size;
    block.objects = 1;
    block.members.push_back(id);
    ++ops_.puts;
    if (m_block_flushes_ != nullptr) {
      m_block_flushes_->Inc();
    }
    return block_id;
  }
  if (open_block_ == 0) {
    open_block_ = next_block_++;
    blocks_[open_block_].open = true;
  }
  const uint64_t block_id = open_block_;
  BlockMeta& block = blocks_[block_id];
  block.members.push_back(id);
  block.bytes += size;
  ++block.objects;
  if (block.objects >= config_.max_objects_per_block || block.bytes >= config_.block_bytes) {
    FlushOpenBlock();
  }
  return block_id;
}

void ObjectStorageCache::AdmitPrehashed(ObjectId id, uint64_t h, uint64_t size) {
  MACARON_DCHECK(h == Mix64(id));
  if (order_->GetPrehashed(id, h)) {
    return;  // live; immutable data: refresh recency only
  }
  // A dead prior copy (Evicted then re-fetched) stays garbage in its old
  // block; the new copy goes into the open block.
  if (m_admits_ != nullptr) {
    m_admits_->Inc();
  }
  order_->PutPrehashed(id, h, size);
  live_bytes_ += size;
  const uint32_t slot = order_->SlotOfPrehashed(id, h);
  MACARON_CHECK(slot != EvictionCache::kNoSlot);
  if (slot >= rows_.size()) {
    rows_.resize(static_cast<size_t>(slot) + 1);
  }
  rows_[slot] = ObjectRow{PlaceCopy(id, size), size};
}

void ObjectStorageCache::DeletePrehashed(ObjectId id, uint64_t h) {
  MACARON_DCHECK(h == Mix64(id));
  const uint32_t slot = order_->SlotOfPrehashed(id, h);
  if (slot == EvictionCache::kNoSlot) {
    return;
  }
  const ObjectRow row = rows_[slot];
  order_->ErasePrehashed(id, h);
  live_bytes_ -= row.size;
  if (m_deletes_ != nullptr) {
    m_deletes_->Inc();
  }
  MarkDead(row);
}

void ObjectStorageCache::MarkDead(const ObjectRow& row) {
  garbage_bytes_ += row.size;
  const auto bit = blocks_.find(row.block);
  MACARON_CHECK(bit != blocks_.end());
  bit->second.dead_bytes += row.size;
  ++bit->second.dead_objects;
  MaybeScheduleGc(row.block);
}

void ObjectStorageCache::MaybeScheduleGc(uint64_t block_id) {
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

void ObjectStorageCache::FlushOpenBlock() {
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
  if (m_block_flushes_ != nullptr) {
    m_block_flushes_->Inc();
  }
  MaybeScheduleGc(block_id);  // members may already have died pre-flush
}

void ObjectStorageCache::EvictToCapacity(uint64_t target_bytes) {
  if (live_bytes_ > target_bytes) {
    // Let the policy itself choose the victims (a temporary resize), so the
    // OSC evicts exactly what the policy's mini-cache model predicts, then
    // return the ordering structure to its unbounded lazy state. Resize
    // only frees slots, so every victim's row is intact when read below.
    std::vector<std::pair<ObjectId, uint32_t>> victims;
    order_->set_evict_callback([&victims](ObjectId id, uint64_t, uint32_t slot) {
      victims.emplace_back(id, slot);
    });
    order_->Resize(target_bytes);
    order_->Resize(std::numeric_limits<uint64_t>::max() / 2);
    order_->set_evict_callback(nullptr);
    if (m_evictions_ != nullptr) {
      m_evictions_->Inc(victims.size());
    }
    for (const auto& [id, slot] : victims) {
      const ObjectRow& row = rows_[slot];
      live_bytes_ -= row.size;
      MarkDead(row);
      if (evict_observer_) {
        evict_observer_(id);
      }
    }
  }
  RunGc();
}

void ObjectStorageCache::RunGc() {
  // Rewrites may flush new blocks and, in principle, schedule further GC;
  // loop until the list drains.
  while (!gc_list_.empty()) {
    std::set<uint64_t> batch;
    batch.swap(gc_list_);
    for (uint64_t block_id : batch) {
      const auto it = blocks_.find(block_id);
      if (it == blocks_.end() || it->second.open) {
        continue;
      }
      ++ops_.gc_block_reads;
      if (m_gc_blocks_ != nullptr) {
        m_gc_blocks_->Inc();
        m_gc_reclaimed_bytes_->Inc(it->second.dead_bytes);
      }
      garbage_bytes_ -= it->second.dead_bytes;
      std::vector<ObjectId> members = std::move(it->second.members);
      blocks_.erase(it);
      for (ObjectId id : members) {
        // A member survives iff it is live and its live copy is this one:
        // a dead copy has no slot, and a re-admitted object's row points
        // at a newer block.
        const uint32_t slot = order_->SlotOfPrehashed(id, Mix64(id));
        if (slot == EvictionCache::kNoSlot || rows_[slot].block != block_id) {
          continue;
        }
        // Survivor: repack into the open block without touching recency.
        rows_[slot].block = PlaceCopy(id, rows_[slot].size);
      }
    }
  }
}

void ObjectStorageCache::CheckConsistent() const {
  uint64_t order_bytes = 0;
  order_->ForEachHotOrder([&](ObjectId id, uint64_t size) {
    const uint32_t slot = order_->SlotOfPrehashed(id, Mix64(id));
    MACARON_CHECK(slot < rows_.size());
    const ObjectRow& row = rows_[slot];
    MACARON_CHECK(row.size == size);
    const auto it = blocks_.find(row.block);
    MACARON_CHECK(it != blocks_.end());
    const std::vector<ObjectId>& members = it->second.members;
    MACARON_CHECK(std::find(members.begin(), members.end(), id) != members.end());
    order_bytes += size;
    return true;
  });
  uint64_t block_live_bytes = 0;
  uint64_t block_dead_bytes = 0;
  for (const auto& [block_id, block] : blocks_) {
    MACARON_CHECK(block.dead_bytes <= block.bytes);
    block_live_bytes += block.bytes - block.dead_bytes;
    block_dead_bytes += block.dead_bytes;
  }
  MACARON_CHECK(block_live_bytes == live_bytes_);
  MACARON_CHECK(order_bytes == live_bytes_);
  MACARON_CHECK(order_->used_bytes() == live_bytes_);
  MACARON_CHECK(block_dead_bytes == garbage_bytes_);
}

std::vector<ObjectStorageCache::BlockDebug> ObjectStorageCache::DebugBlocks() const {
  std::vector<BlockDebug> out;
  out.reserve(blocks_.size());
  for (const auto& [id, block] : blocks_) {
    out.push_back(BlockDebug{block.bytes, block.dead_bytes, block.objects, block.dead_objects,
                             block.open});
  }
  return out;
}

void ObjectStorageCache::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_admits_ = nullptr;
    m_deletes_ = nullptr;
    m_evictions_ = nullptr;
    m_block_flushes_ = nullptr;
    m_gc_blocks_ = nullptr;
    m_gc_reclaimed_bytes_ = nullptr;
    return;
  }
  m_admits_ = registry->counter("osc", "admits");
  m_deletes_ = registry->counter("osc", "deletes");
  m_evictions_ = registry->counter("osc", "evictions");
  m_block_flushes_ = registry->counter("osc", "block_flushes");
  m_gc_blocks_ = registry->counter("osc", "gc_blocks");
  m_gc_reclaimed_bytes_ = registry->counter("osc", "gc_reclaimed_bytes");
}

ObjectStorageCache::OpCounts ObjectStorageCache::TakeOps() {
  const OpCounts out = ops_;
  ops_ = OpCounts{};
  return out;
}

}  // namespace macaron
