// Byte-capacity LRU cache (metadata-only).
//
// The simulator never stores object payloads, so one implementation serves
// DRAM cache nodes, ghost caches, and the miniature-simulation mini-caches.
// Capacity is in bytes; entries carry their object size. Eviction callbacks
// let owners account for evicted bytes.
//
// Entries live in a NodeSlab with an intrusive recency list and a FlatIndex
// lookup (see slab_lru.h): no per-entry heap allocation once the slab has
// grown to the steady-state population, which is what lets the mini-cache
// banks replay hundreds of millions of requests without touching the
// allocator.

#ifndef MACARON_SRC_CACHE_LRU_CACHE_H_
#define MACARON_SRC_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <functional>

#include "src/cache/flat_index.h"
#include "src/cache/slab_lru.h"
#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

class LruCache {
 public:
  // Receives the victim's id, size and (already freed) slab slot.
  using EvictCallback = std::function<void(ObjectId, uint64_t size, uint32_t slot)>;

  explicit LruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Looks up `id`, promoting it to MRU on hit. Returns true on hit.
  bool Get(ObjectId id) { return GetPrehashed(id, Mix64(id)); }
  // Looks up without promoting (for inspection).
  bool Contains(ObjectId id) const { return ContainsPrehashed(id, Mix64(id)); }
  // Hints the CPU to load `id`'s index lines; see FlatIndex::PrefetchPrehashed.
  void Prefetch(ObjectId id) const { index_.PrefetchPrehashed(Mix64(id)); }
  // Returns the stored size of `id`, or 0 if absent.
  uint64_t SizeOf(ObjectId id) const;

  // Inserts or refreshes `id`; evicts LRU entries if needed. Objects larger
  // than the capacity are not admitted.
  void Put(ObjectId id, uint64_t size) { PutPrehashed(id, Mix64(id), size); }
  // Removes `id` if present; returns true if it was present.
  bool Erase(ObjectId id) { return ErasePrehashed(id, Mix64(id)); }

  // Prehashed fast path: the caller supplies `id`'s index hash, computed
  // once at stream ingest (see flat_index.h for the consistency rule — an
  // instance must see the same hash per id across all calls, so never mix
  // plain calls with a non-Mix64(id) hash on one cache).
  bool GetPrehashed(ObjectId id, uint64_t hash);
  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size);
  bool ErasePrehashed(ObjectId id, uint64_t hash);
  bool ContainsPrehashed(ObjectId id, uint64_t hash) const {
    return index_.FindPrehashed(id, hash, slab_) != FlatIndex::kEmpty;
  }
  void PrefetchPrehashed(uint64_t hash) const { index_.PrefetchPrehashed(hash); }
  // The slab slot holding `id` (stable while resident), or FlatIndex::kEmpty.
  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const {
    return index_.FindPrehashed(id, hash, slab_);
  }
  // The size stored in a live slot.
  uint64_t SizeAtSlot(uint32_t slot) const { return slab_.node(slot).size; }
  // GetPrehashed, then PutPrehashed on a miss, with one index probe: returns
  // the entry's slot (FlatIndex::kEmpty if `size` exceeds the capacity) and
  // sets *inserted iff this call admitted it.
  uint32_t TouchOrInsertPrehashed(ObjectId id, uint64_t hash, uint64_t size, bool* inserted);

  // Changes capacity; evicts immediately if shrinking.
  void Resize(uint64_t capacity_bytes);

  uint64_t capacity() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_entries() const { return index_.size(); }
  // Slab slots ever materialized (live + freelist); stops growing once the
  // cache reaches its steady-state population.
  size_t allocated_nodes() const { return slab_.allocated_nodes(); }

  void set_evict_callback(EvictCallback cb) { evict_cb_ = std::move(cb); }

  // Iterates entries from MRU to LRU until `fn` returns false.
  void ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const;
  // Iterates entries from LRU to MRU until `fn` returns false.
  void ForEachLruToMru(const std::function<bool(ObjectId, uint64_t)>& fn) const;

 private:
  void EvictToFit(uint64_t incoming);
  // Admits an absent `id` that fits the capacity; returns its slot.
  uint32_t Insert(ObjectId id, uint64_t hash, uint64_t size);

  uint64_t capacity_;
  uint64_t used_ = 0;
  NodeSlab slab_;
  IntrusiveList lru_;  // front = MRU
  FlatIndex index_;
  EvictCallback evict_cb_;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_LRU_CACHE_H_
