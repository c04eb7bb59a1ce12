// Byte-capacity LRU cache (metadata-only).
//
// The simulator never stores object payloads, so one implementation serves
// DRAM cache nodes, the OSC's default replacement order and the
// miniature-simulation mini-caches. Capacity is in bytes; entries carry
// their object size. Eviction callbacks let owners account for evicted
// bytes.
//
// LruCache is the kLru EvictionCache (MakeEvictionCache returns one). Its
// entries live in the SlabPolicy base's SlabTable with an intrusive recency
// list (see slab_table.h): no per-entry heap allocation once the slab has
// grown to the steady-state population, which is what lets the mini-cache
// banks replay hundreds of millions of requests without touching the
// allocator. The class is final, so calls on an LruCache bind statically.

#ifndef MACARON_SRC_CACHE_LRU_CACHE_H_
#define MACARON_SRC_CACHE_LRU_CACHE_H_

#include <cstdint>

#include "src/cache/eviction_policy.h"
#include "src/cache/slab_lru.h"
#include "src/trace/request.h"

namespace macaron {

class LruCache final : public SlabPolicy<LruCache> {
 public:
  explicit LruCache(uint64_t capacity_bytes) : SlabPolicy(capacity_bytes) {}

  // Returns the stored size of `id`, or 0 if absent.
  uint64_t SizeOf(ObjectId id) const;

  // A hit moves to MRU. Put inserts or refreshes (resizing and moving to
  // MRU) and evicts LRU entries to fit; objects larger than the capacity
  // are not admitted. See EvictionCache for the hash-once contract.
  bool GetPrehashed(ObjectId id, uint64_t hash) override;
  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override;
  bool ErasePrehashed(ObjectId id, uint64_t hash) override;
  // GetPrehashed, then PutPrehashed on a miss, with one index probe.
  uint32_t TouchOrInsertPrehashed(ObjectId id, uint64_t hash, uint64_t size,
                                  bool* inserted) override;

  // Changes capacity; evicts immediately if shrinking.
  void Resize(uint64_t capacity_bytes) override;

  // LRU to MRU, and MRU to LRU.
  void ForEachEvictOrder(const VisitFn& fn) const override {
    lru_.ForEachBackToFront(table_.slab(), fn);
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    lru_.ForEachFrontToBack(table_.slab(), fn);
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kLru; }

 private:
  void EvictToFit(uint64_t incoming);
  // Admits an absent `id` that fits the capacity; returns its slot.
  uint32_t Insert(ObjectId id, uint64_t hash, uint64_t size);

  IntrusiveList lru_;  // front = MRU
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_LRU_CACHE_H_
