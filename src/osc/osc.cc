#include "src/osc/osc.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

ObjectStorageCache::ObjectStorageCache(const PackingConfig& config, size_t expected_objects)
    : config_(config),
      order_(MakeEvictionCache(config.policy, std::numeric_limits<uint64_t>::max() / 2)) {
  MACARON_CHECK(config.block_bytes > 0);
  MACARON_CHECK(config.max_objects_per_block > 0);
  order_->ReserveNodes(expected_objects);
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

uint32_t ObjectStorageCache::NewBlock() {
  uint32_t slot;
  if (free_blocks_.empty()) {
    MACARON_CHECK(blocks_.size() < kNoBlock);  // order tags name blocks by uint32 slot
    slot = static_cast<uint32_t>(blocks_.size());
    blocks_.emplace_back();
  } else {
    slot = free_blocks_.back();
    free_blocks_.pop_back();
  }
  blocks_[slot] = Block{.id = next_block_id_++, .first = static_cast<uint32_t>(members_.size())};
  ++live_blocks_;
  return slot;
}

void ObjectStorageCache::FreeBlock(uint32_t slot) {
  Block& block = blocks_[slot];
  dropped_members_ += block.objects;
  block.id = 0;
  free_blocks_.push_back(slot);
  --live_blocks_;
  if (dropped_members_ > members_.size() - dropped_members_) {
    CompactMembers();
  }
}

void ObjectStorageCache::CompactMembers() {
  // Runs move down in log order, so none is overwritten before it moves and
  // the filling block's run, the newest, stays last. A run may start and
  // end on different pages, so it moves id by id.
  std::vector<std::pair<uint32_t, uint32_t>> runs;  // (first, block slot)
  runs.reserve(live_blocks_);
  for (uint32_t slot = 0; slot < blocks_.size(); ++slot) {
    if (blocks_[slot].id != 0) {
      runs.emplace_back(blocks_[slot].first, slot);
    }
  }
  std::sort(runs.begin(), runs.end());
  uint32_t out = 0;
  for (const auto& [first, slot] : runs) {
    Block& block = blocks_[slot];
    if (first != out) {
      for (uint32_t i = 0; i < block.objects; ++i) {
        members_[out + i] = members_[first + i];
      }
    }
    block.first = out;
    out += block.objects;
  }
  members_.Truncate(out);
  dropped_members_ = 0;
}

uint32_t ObjectStorageCache::PlaceCopy(ObjectId id, uint64_t size) {
  const bool packing = config_.packing_enabled;
  uint32_t slot = open_block_;
  if (!packing || slot == kNoBlock) {
    slot = NewBlock();
    if (packing) {
      blocks_[slot].open = true;
      open_block_ = slot;
    }
  }
  Block& block = blocks_[slot];
  // Only the block being filled appends, so its run ends the log.
  MACARON_DCHECK(block.first + block.objects == members_.size());
  MACARON_CHECK(members_.size() < std::numeric_limits<uint32_t>::max());  // runs index it by uint32
  members_.push_back(id);
  block.bytes += size;
  ++block.objects;
  if (!packing) {
    // One object per block: write immediately.
    ++ops_.puts;
    if (m_block_flushes_ != nullptr) {
      m_block_flushes_->Inc();
    }
  } else if (block.objects >= config_.max_objects_per_block ||
             block.bytes >= config_.block_bytes) {
    FlushOpenBlock();
  }
  return slot;
}

void ObjectStorageCache::AdmitPrehashed(ObjectId id, uint64_t h, uint64_t size) {
  MACARON_DCHECK(h == Mix64(id));
  bool inserted = false;
  const uint32_t slot = order_->TouchOrInsertPrehashed(id, h, size, &inserted);
  MACARON_CHECK(slot != EvictionCache::kNoSlot);
  if (!inserted) {
    return;  // live; immutable data: refresh recency only
  }
  // A dead prior copy (Evicted then re-fetched) stays garbage in its old
  // block; the new copy goes into the open block.
  if (m_admits_ != nullptr) {
    m_admits_->Inc();
  }
  live_bytes_ += size;
  order_->SetTagAtSlot(slot, PlaceCopy(id, size));
}

void ObjectStorageCache::DeletePrehashed(ObjectId id, uint64_t h) {
  MACARON_DCHECK(h == Mix64(id));
  const uint32_t slot = order_->SlotOfPrehashed(id, h);
  if (slot == EvictionCache::kNoSlot) {
    return;
  }
  const uint64_t size = order_->SizeAtSlot(slot);
  const uint32_t block = order_->TagAtSlot(slot);
  order_->ErasePrehashed(id, h);
  live_bytes_ -= size;
  if (m_deletes_ != nullptr) {
    m_deletes_->Inc();
  }
  MarkDead(block, size);
}

void ObjectStorageCache::MarkDead(uint32_t slot, uint64_t size) {
  garbage_bytes_ += size;
  Block& block = blocks_[slot];
  MACARON_DCHECK(block.id != 0);
  block.dead_bytes += size;
  ++block.dead_objects;
  MaybeScheduleGc(slot);
}

void ObjectStorageCache::MaybeScheduleGc(uint32_t slot) {
  Block& block = blocks_[slot];
  if (block.open || block.scheduled || block.bytes == 0) {
    return;
  }
  const double dead_fraction =
      static_cast<double>(block.dead_bytes) / static_cast<double>(block.bytes);
  if (dead_fraction >= kGcDeadFraction) {
    block.scheduled = true;
    gc_list_.push_back(slot);
  }
}

void ObjectStorageCache::FlushOpenBlock() {
  if (open_block_ == kNoBlock) {
    return;
  }
  const uint32_t slot = open_block_;
  open_block_ = kNoBlock;
  Block& block = blocks_[slot];
  if (block.objects == 0) {
    FreeBlock(slot);
    return;
  }
  block.open = false;
  ++ops_.puts;
  if (m_block_flushes_ != nullptr) {
    m_block_flushes_->Inc();
  }
  MaybeScheduleGc(slot);  // members may already have died pre-flush
}

void ObjectStorageCache::EvictToCapacity(uint64_t target_bytes) {
  if (live_bytes_ > target_bytes) {
    // Let the policy itself choose the victims (a temporary resize), so the
    // OSC evicts exactly what the policy's mini-cache model predicts, then
    // return the ordering structure to its unbounded lazy state. Resize
    // only frees slots, and a freed slot keeps its tag until reused, so
    // each victim's block slot is still readable in the callback, which
    // marks the victim dead there and then. Neither MarkDead nor the
    // observer touches the order.
    order_->set_evict_callback([this](ObjectId id, uint64_t size, uint32_t slot) {
      live_bytes_ -= size;
      MarkDead(order_->TagAtSlot(slot), size);
      if (m_evictions_ != nullptr) {
        m_evictions_->Inc();
      }
      if (evict_observer_) {
        evict_observer_(id);
      }
    });
    order_->Resize(target_bytes);
    order_->Resize(std::numeric_limits<uint64_t>::max() / 2);
    order_->set_evict_callback(nullptr);
  }
  RunGc();
}

void ObjectStorageCache::RunGc() {
  // Rewrites may flush new blocks and, in principle, schedule further GC;
  // loop until the list drains.
  std::vector<uint32_t> batch;
  while (!gc_list_.empty()) {
    batch.clear();
    batch.swap(gc_list_);
    std::sort(batch.begin(), batch.end(),
              [this](uint32_t a, uint32_t b) { return blocks_[a].id < blocks_[b].id; });
    for (const uint32_t slot : batch) {
      // PlaceCopy below may grow blocks_: index, don't hold.
      MACARON_DCHECK(blocks_[slot].id != 0 && !blocks_[slot].open && blocks_[slot].scheduled);
      ++ops_.gc_block_reads;
      if (m_gc_blocks_ != nullptr) {
        m_gc_blocks_->Inc();
        m_gc_reclaimed_bytes_->Inc(blocks_[slot].dead_bytes);
      }
      garbage_bytes_ -= blocks_[slot].dead_bytes;
      const uint32_t count = blocks_[slot].objects;
      for (uint32_t i = 0; i < count; ++i) {
        // A member survives iff it is live and its live copy is this one: a
        // dead copy has no slot, and a re-admitted object's tag names a
        // newer block.
        const ObjectId id = members_[blocks_[slot].first + i];
        const uint32_t at = order_->SlotOfPrehashed(id, Mix64(id));
        if (at == EvictionCache::kNoSlot || order_->TagAtSlot(at) != slot) {
          continue;
        }
        // Survivor: repack into the open block without touching recency.
        order_->SetTagAtSlot(at, PlaceCopy(id, order_->SizeAtSlot(at)));
      }
      // Only now may the slot be reused: until the loop ends, a tag naming
      // it must mean this block, not a new one opened for the survivors.
      FreeBlock(slot);
    }
  }
}

void ObjectStorageCache::CheckConsistent() const {
  // Blocks, the free list and the member runs.
  size_t live_blocks = 0;
  size_t scheduled = 0;
  uint64_t run_members = 0;
  uint64_t block_live_bytes = 0;
  uint64_t block_dead_bytes = 0;
  std::vector<std::pair<uint64_t, uint64_t>> runs;  // [first, end) of each live block's run
  for (uint32_t slot = 0; slot < blocks_.size(); ++slot) {
    const Block& block = blocks_[slot];
    if (block.id == 0) {
      continue;
    }
    ++live_blocks;
    MACARON_CHECK(block.id < next_block_id_);
    MACARON_CHECK(block.open == (slot == open_block_));
    MACARON_CHECK(block.dead_bytes <= block.bytes);
    MACARON_CHECK(block.dead_objects <= block.objects);
    const uint64_t end = static_cast<uint64_t>(block.first) + block.objects;
    MACARON_CHECK(end <= members_.size());
    runs.emplace_back(block.first, end);
    run_members += block.objects;
    if (block.scheduled) {
      MACARON_CHECK(!block.open);
      ++scheduled;
    }
    block_live_bytes += block.bytes - block.dead_bytes;
    block_dead_bytes += block.dead_bytes;
  }
  MACARON_CHECK(live_blocks == num_blocks());
  std::sort(runs.begin(), runs.end());
  for (size_t i = 1; i < runs.size(); ++i) {
    MACARON_CHECK(runs[i - 1].second <= runs[i].first);  // no two runs overlap
  }
  MACARON_CHECK(dropped_members_ == members_.size() - run_members);
  // No page lies wholly past the log's end.
  MACARON_CHECK(members_.pages() == (members_.size() + kMemberPageIds - 1) / kMemberPageIds);
  if (open_block_ != kNoBlock) {
    MACARON_CHECK(open_block_ < blocks_.size() && blocks_[open_block_].id != 0);
    // The filling block's run ends the log, so its next append extends it.
    MACARON_CHECK(blocks_[open_block_].first + blocks_[open_block_].objects == members_.size());
  }
  std::vector<uint32_t> free_slots = free_blocks_;
  std::sort(free_slots.begin(), free_slots.end());
  MACARON_CHECK(std::adjacent_find(free_slots.begin(), free_slots.end()) == free_slots.end());
  for (const uint32_t slot : free_slots) {
    MACARON_CHECK(slot < blocks_.size() && blocks_[slot].id == 0);
  }
  MACARON_CHECK(live_blocks + free_slots.size() == blocks_.size());
  // The GC list: each scheduled block once.
  MACARON_CHECK(gc_list_.size() == scheduled);
  for (const uint32_t slot : gc_list_) {
    MACARON_CHECK(slot < blocks_.size() && blocks_[slot].id != 0 && blocks_[slot].scheduled);
  }
  // Objects: each live one's tag names a live block whose run lists it.
  uint64_t order_bytes = 0;
  order_->ForEachHotOrder([&](ObjectId id, uint64_t size) {
    const uint32_t slot = order_->SlotOfPrehashed(id, Mix64(id));
    MACARON_CHECK(order_->SizeAtSlot(slot) == size);
    const uint32_t block_slot = order_->TagAtSlot(slot);
    MACARON_CHECK(block_slot < blocks_.size() && blocks_[block_slot].id != 0);
    const Block& block = blocks_[block_slot];
    bool listed = false;
    for (uint32_t i = 0; i < block.objects && !listed; ++i) {
      listed = members_[block.first + i] == id;
    }
    MACARON_CHECK(listed);
    order_bytes += size;
    return true;
  });
  MACARON_CHECK(block_live_bytes == live_bytes_);
  MACARON_CHECK(order_bytes == live_bytes_);
  MACARON_CHECK(order_->used_bytes() == live_bytes_);
  MACARON_CHECK(block_dead_bytes == garbage_bytes_);
}

std::vector<ObjectStorageCache::BlockDebug> ObjectStorageCache::DebugBlocks() const {
  std::vector<BlockDebug> out;
  out.reserve(live_blocks_);
  for (const Block& block : blocks_) {
    if (block.id != 0) {
      out.push_back(BlockDebug{block.bytes, block.dead_bytes, block.objects,
                               block.dead_objects, block.open, block.id, block.first});
    }
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
