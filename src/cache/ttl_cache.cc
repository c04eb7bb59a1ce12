#include "src/cache/ttl_cache.h"

#include "src/common/check.h"

namespace macaron {

bool TtlCache::GetPrehashed(ObjectId id, uint64_t hash, SimTime now) {
  Expire(now);
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n == FlatIndex::kEmpty) {
    return false;
  }
  last_access_[n] = now;
  order_.MoveToFront(slab_, n);
  return true;
}

void TtlCache::PutPrehashed(ObjectId id, uint64_t hash, uint64_t size, SimTime now) {
  Expire(now);
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n != FlatIndex::kEmpty) {
    SlabNode& e = slab_.node(n);
    used_ -= e.size;
    used_ += size;
    e.size = size;
    last_access_[n] = now;
    order_.MoveToFront(slab_, n);
    return;
  }
  const uint32_t fresh = slab_.Allocate(id, size);
  last_access_.resize(slab_.allocated_nodes());
  last_access_[fresh] = now;  // a reused slot's old time must not survive
  order_.PushFront(slab_, fresh);
  index_.EmplacePrehashed(hash, fresh, &slab_);
  used_ += size;
}

bool TtlCache::ErasePrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = index_.FindPrehashed(id, hash, slab_);
  if (n == FlatIndex::kEmpty) {
    return false;
  }
  used_ -= slab_.node(n).size;
  order_.Remove(slab_, n);
  index_.EraseCell(slab_.node(n).cell, &slab_);
  slab_.Free(n);
  return true;
}

void TtlCache::Expire(SimTime now) {
  while (!order_.empty() && last_access_[order_.tail()] + ttl_ < now) {
    const uint32_t victim = order_.tail();
    const ObjectId victim_id = slab_.node(victim).id;
    const uint64_t victim_size = slab_.node(victim).size;
    order_.Remove(slab_, victim);
    index_.EraseCell(slab_.node(victim).cell, &slab_);
    slab_.Free(victim);
    used_ -= victim_size;
    if (evict_cb_) {
      evict_cb_(victim_id, victim_size);
    }
  }
}

void TtlCache::SetTtl(SimDuration ttl, SimTime now) {
  MACARON_CHECK(ttl > 0);
  ttl_ = ttl;
  Expire(now);
}

}  // namespace macaron
