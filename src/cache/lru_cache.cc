#include "src/cache/lru_cache.h"

#include "src/common/check.h"

namespace macaron {

bool LruCache::GetPrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = table_.Find(id, hash);
  if (n == kNoSlot) {
    return false;
  }
  lru_.MoveToFront(table_.slab(), n);
  return true;
}

uint64_t LruCache::SizeOf(ObjectId id) const {
  const uint32_t n = table_.Find(id, Mix64(id));
  return n == kNoSlot ? 0 : table_.node(n).size;
}

void LruCache::PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) {
  const uint32_t n = table_.Find(id, hash);
  if (n != kNoSlot) {
    SlabNode& e = table_.node(n);
    used_ -= e.size;
    used_ += size;
    e.size = size;
    lru_.MoveToFront(table_.slab(), n);
    if (used_ > capacity_) {
      EvictToFit(0);
    }
    return;
  }
  if (size > capacity_) {
    return;  // cannot admit
  }
  Insert(id, hash, size);
}

uint32_t LruCache::TouchOrInsertPrehashed(ObjectId id, uint64_t hash, uint64_t size,
                                          bool* inserted) {
  const uint32_t n = table_.Find(id, hash);
  if (n != kNoSlot) {
    lru_.MoveToFront(table_.slab(), n);
    *inserted = false;
    return n;
  }
  *inserted = size <= capacity_;
  return *inserted ? Insert(id, hash, size) : kNoSlot;
}

uint32_t LruCache::Insert(ObjectId id, uint64_t hash, uint64_t size) {
  EvictToFit(size);
  const uint32_t fresh = Admit(id, hash, size);
  lru_.PushFront(table_.slab(), fresh);
  return fresh;
}

bool LruCache::ErasePrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = table_.Find(id, hash);
  if (n == kNoSlot) {
    return false;
  }
  lru_.Remove(table_.slab(), n);
  Drop(n);
  return true;
}

void LruCache::Resize(uint64_t capacity_bytes) {
  capacity_ = capacity_bytes;
  EvictToFit(0);
}

void LruCache::EvictToFit(uint64_t incoming) {
  while (used_ + incoming > capacity_ && !lru_.empty()) {
    EvictTail(lru_);
  }
  MACARON_CHECK(used_ + incoming <= capacity_ || lru_.empty());
}

}  // namespace macaron
