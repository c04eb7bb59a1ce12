#include "src/cache/ttl_cache.h"

#include "src/common/check.h"

namespace macaron {

bool TtlCache::GetPrehashed(ObjectId id, uint64_t hash, SimTime now) {
  Expire(now);
  const uint32_t n = table_.Find(id, hash);
  if (n == SlabTable::kNone) {
    return false;
  }
  last_access_[n] = now;
  order_.MoveToFront(table_.slab(), n);
  return true;
}

void TtlCache::PutPrehashed(ObjectId id, uint64_t hash, uint64_t size, SimTime now) {
  Expire(now);
  const uint32_t n = table_.Find(id, hash);
  if (n != SlabTable::kNone) {
    SlabNode& e = table_.node(n);
    used_ -= e.size;
    used_ += size;
    e.size = size;
    last_access_[n] = now;
    order_.MoveToFront(table_.slab(), n);
    return;
  }
  const uint32_t fresh = table_.Insert(id, hash, size);
  last_access_.resize(table_.allocated_nodes());
  last_access_[fresh] = now;  // a reused slot's old time must not survive
  order_.PushFront(table_.slab(), fresh);
  used_ += size;
}

bool TtlCache::ErasePrehashed(ObjectId id, uint64_t hash) {
  const uint32_t n = table_.Find(id, hash);
  if (n == SlabTable::kNone) {
    return false;
  }
  used_ -= table_.node(n).size;
  order_.Remove(table_.slab(), n);
  table_.Remove(n);
  return true;
}

void TtlCache::Expire(SimTime now) {
  while (!order_.empty() && last_access_[order_.tail()] + ttl_ < now) {
    const uint32_t victim = order_.tail();
    const SlabNode& v = table_.node(victim);  // a freed node keeps its id and size
    order_.Remove(table_.slab(), victim);
    table_.Remove(victim);
    used_ -= v.size;
    if (evict_cb_) {
      evict_cb_(v.id, v.size);
    }
  }
}

void TtlCache::SetTtl(SimDuration ttl, SimTime now) {
  MACARON_CHECK(ttl > 0);
  ttl_ = ttl;
  Expire(now);
}

}  // namespace macaron
