#include "src/cache/lru_cache.h"

#include "src/common/check.h"

namespace macaron {

bool LruCache::GetPrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n == FlatIndex::kEmpty) {
    return false;
  }
  lru_.MoveToFront(slab_, n);
  return true;
}

uint64_t LruCache::SizeOf(ObjectId id) const {
  const uint32_t n = index_.FindPrehashed(id, Mix64(id), slab_);
  return n == FlatIndex::kEmpty ? 0 : slab_.node(n).size;
}

void LruCache::PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) {
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n != FlatIndex::kEmpty) {
    SlabNode& e = slab_.node(n);
    used_ -= e.size;
    used_ += size;
    e.size = size;
    lru_.MoveToFront(slab_, n);
    if (used_ > capacity_) {
      EvictToFit(0);
    }
    return;
  }
  if (size > capacity_) {
    return;  // cannot admit
  }
  EvictToFit(size);
  const uint32_t fresh = slab_.Allocate(id, size, 0, static_cast<uint32_t>(hash));
  lru_.PushFront(slab_, fresh);
  index_.EmplacePrehashed(hash, fresh, &slab_);
  used_ += size;
}

bool LruCache::ErasePrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n == FlatIndex::kEmpty) {
    return false;
  }
  used_ -= slab_.node(n).size;
  lru_.Remove(slab_, n);
  index_.EraseCell(slab_.node(n).cell, &slab_);
  slab_.Free(n);
  return true;
}

void LruCache::Resize(uint64_t capacity_bytes) {
  capacity_ = capacity_bytes;
  EvictToFit(0);
}

void LruCache::EvictToFit(uint64_t incoming) {
  while (used_ + incoming > capacity_ && !lru_.empty()) {
    const uint32_t victim = lru_.tail();
    const ObjectId victim_id = slab_.node(victim).id;
    const uint64_t victim_size = slab_.node(victim).size;
    lru_.Remove(slab_, victim);
    index_.EraseCell(slab_.node(victim).cell, &slab_);
    slab_.Free(victim);
    used_ -= victim_size;
    if (evict_cb_) {
      evict_cb_(victim_id, victim_size, victim);
    }
  }
  MACARON_CHECK(used_ + incoming <= capacity_ || lru_.empty());
}

void LruCache::ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
  lru_.ForEachFrontToBack(slab_, fn);
}

void LruCache::ForEachLruToMru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
  lru_.ForEachBackToFront(slab_, fn);
}

}  // namespace macaron
