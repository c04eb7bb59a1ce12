// The slot table: a NodeSlab and the FlatIndex bound to it, behind one
// protocol.
//
// Every slab-backed structure in the cache core (the four replacement
// policies, TtlCache, MrcBank's LRU timeline and AlcBank's slot map) keeps
// entries as slab nodes found through an index whose values are those
// nodes' slots, with each node's `cell` backlink kept in sync by the index
// (see flat_index.h). Admitting an entry is Allocate then EmplacePrehashed;
// dropping one is EraseCell through the backlink, with no probe, then Free.
// This class is the one place that spells those pairs, so no owner can
// index a node it never allocated or free one the index still names.
//
// A removed node keeps its id, size and tag until a later Insert reuses
// its slot (NodeSlab::Free), so an owner may read its victim after Remove,
// e.g. to report an eviction. The table adds no bytes per entry.

#ifndef MACARON_SRC_CACHE_SLAB_TABLE_H_
#define MACARON_SRC_CACHE_SLAB_TABLE_H_

#include <cstddef>
#include <cstdint>

#include "src/cache/flat_index.h"
#include "src/cache/slab_lru.h"
#include "src/trace/request.h"

namespace macaron {

class SlabTable {
 public:
  static constexpr uint32_t kNone = FlatIndex::kEmpty;

  // The slot holding `id`, or kNone. `hash` follows the index's consistency
  // rule (flat_index.h): one table, one hash per id.
  uint32_t Find(ObjectId id, uint64_t hash) const { return index_.FindPrehashed(id, hash, slab_); }

  // Admits an absent `id` into a fresh or reused slot and returns it.
  uint32_t Insert(ObjectId id, uint64_t hash, uint64_t size, uint32_t tag = 0) {
    const uint32_t slot = slab_.Allocate(id, size, tag);
    index_.EmplacePrehashed(hash, slot, &slab_);
    return slot;
  }

  // Drops the live `slot` from the index and frees it. Unlink it from every
  // IntrusiveList first.
  void Remove(uint32_t slot) {
    index_.EraseCell(slab_.node(slot).cell, &slab_);
    slab_.Free(slot);
  }

  // The low 32 bits of the live `slot`'s hash, as its index cell caches them.
  uint32_t Hash32(uint32_t slot) const { return index_.HashAtCell(slab_.node(slot).cell); }

  // Hints the CPU to load `hash`'s index lines; see FlatIndex::PrefetchPrehashed.
  void Prefetch(uint64_t hash) const { index_.PrefetchPrehashed(hash); }

  SlabNode& node(uint32_t slot) { return slab_.node(slot); }
  const SlabNode& node(uint32_t slot) const { return slab_.node(slot); }
  // The slab, for the IntrusiveLists threaded through it.
  NodeSlab& slab() { return slab_; }
  const NodeSlab& slab() const { return slab_; }

  // Live entries.
  size_t size() const { return index_.size(); }
  // Slots ever materialized (live + freelist); see NodeSlab.
  size_t allocated_nodes() const { return slab_.allocated_nodes(); }

 private:
  NodeSlab slab_;
  FlatIndex index_;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_SLAB_TABLE_H_
