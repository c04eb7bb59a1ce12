// Slab-backed intrusive lists: the allocation-free cache core.
//
// A single `simulate` run drives hundreds of millions of mini-cache
// operations, so the node-per-entry std::list + std::unordered_map layout
// (one allocation per insert, pointer chasing per touch) dominated the
// analyzer profile. Instead, every cache entry lives in a NodeSlab — a
// contiguous vector of fixed-size nodes with intrusive prev/next uint32
// links and a freelist — and recency/queue orders are IntrusiveLists of
// slab indices. Evicted nodes return to the freelist and are reused, so a
// cache that has reached its steady-state population performs zero heap
// allocations per request; the slab persists across analysis windows
// (mini-cache state carries over, mirroring the paper's EFS-resident
// serverless state). Owners hold a slab through a SlabTable
// (slab_table.h), which binds it to its FlatIndex.
//
// One 32-byte node layout serves every policy: id, size, the two list
// links, the index backlink, and `tag`, one 32-bit word that belongs to
// the slab's owner (the OSC's block slot, the MRC timeline's slot, the ALC
// bank's live flag); no replacement policy reads or writes it. Nodes are
// 32-byte aligned, so two share a cache line and none straddles one. State
// only some structures need lives beside the slab in vectors indexed by
// slot: the TTL cache's last-access times, SLRU's segment bytes and
// S3-FIFO's frequency/queue bytes. Multiple IntrusiveLists may share one
// slab (SLRU's probation and protected segments, S3-FIFO's small and main
// queues) because links are per-node, not per-list.

#ifndef MACARON_SRC_CACHE_SLAB_LRU_H_
#define MACARON_SRC_CACHE_SLAB_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/trace/request.h"

namespace macaron {

inline constexpr uint32_t kNilNode = 0xffffffffu;

struct alignas(32) SlabNode {
  ObjectId id = 0;
  uint64_t size = 0;
  uint32_t prev = kNilNode;
  uint32_t next = kNilNode;
  uint32_t cell = kNilNode;  // maintained by a bound FlatIndex (see flat_index.h)
  uint32_t tag = 0;          // the slab owner's word; see the header comment
};
static_assert(sizeof(SlabNode) == 32, "two nodes per cache line");
static_assert(alignof(SlabNode) == 32, "no node straddles a cache line");

// Contiguous pool of SlabNodes with freelist reuse. Slots are stable for
// the lifetime of an entry, so FlatIndex can store them.
class NodeSlab {
 public:
  NodeSlab() = default;

  uint32_t Allocate(ObjectId id, uint64_t size, uint32_t tag = 0) {
    uint32_t idx;
    if (free_head_ != kNilNode) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      MACARON_CHECK(nodes_.size() < kNilNode);
      idx = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    SlabNode& n = nodes_[idx];
    n.id = id;
    n.size = size;
    n.prev = kNilNode;
    n.next = kNilNode;
    n.tag = tag;
    ++live_;
    return idx;
  }

  // Links the slot into the freelist and touches nothing else: until a
  // later Allocate reuses it, the freed node keeps its id, size and tag,
  // which is what lets an eviction callback read its victim's tag.
  void Free(uint32_t idx) {
    nodes_[idx].next = free_head_;
    free_head_ = idx;
    MACARON_DCHECK(live_ > 0);
    --live_;
  }

  // Sizes the array for `nodes` slots in one allocation, so the first
  // `nodes` Allocates move no node and copy nothing; past that the slab
  // regrows by doubling. Slots never written cost address space only.
  void Reserve(size_t nodes) { nodes_.reserve(std::min<size_t>(nodes, kNilNode)); }

  SlabNode& node(uint32_t idx) { return nodes_[idx]; }
  const SlabNode& node(uint32_t idx) const { return nodes_[idx]; }

  // Live entries currently allocated out of the slab.
  size_t live_nodes() const { return live_; }
  // Total slots ever materialized (live + freelist); a slab that stopped
  // growing is allocation-free in steady state.
  size_t allocated_nodes() const { return nodes_.size(); }

  void Clear();

 private:
  std::vector<SlabNode> nodes_;
  uint32_t free_head_ = kNilNode;
  size_t live_ = 0;
};

// Doubly-linked list of slab indices. Does not own the slab; callers pass
// it to every operation (several lists can thread the same slab). As with
// std::list iterators, Remove/MoveToFront require that `idx` currently be
// linked into *this* list.
class IntrusiveList {
 public:
  bool empty() const { return head_ == kNilNode; }
  uint32_t head() const { return head_; }  // front = hottest / newest
  uint32_t tail() const { return tail_; }  // back = next victim

  void PushFront(NodeSlab& slab, uint32_t idx) {
    SlabNode& n = slab.node(idx);
    n.prev = kNilNode;
    n.next = head_;
    if (head_ != kNilNode) {
      slab.node(head_).prev = idx;
    } else {
      tail_ = idx;
    }
    head_ = idx;
  }

  void Remove(NodeSlab& slab, uint32_t idx) {
    SlabNode& n = slab.node(idx);
    if (n.prev != kNilNode) {
      slab.node(n.prev).next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNilNode) {
      slab.node(n.next).prev = n.prev;
    } else {
      tail_ = n.prev;
    }
    n.prev = kNilNode;
    n.next = kNilNode;
  }

  void MoveToFront(NodeSlab& slab, uint32_t idx) {
    if (head_ == idx) {
      return;
    }
    Remove(slab, idx);
    PushFront(slab, idx);
  }

  void Clear() {
    head_ = kNilNode;
    tail_ = kNilNode;
  }

  // Walks front->back / back->front until `fn` returns false.
  template <typename Fn>
  void ForEachFrontToBack(const NodeSlab& slab, Fn&& fn) const {
    for (uint32_t i = head_; i != kNilNode; i = slab.node(i).next) {
      const SlabNode& n = slab.node(i);
      if (!fn(n.id, n.size)) {
        return;
      }
    }
  }
  template <typename Fn>
  void ForEachBackToFront(const NodeSlab& slab, Fn&& fn) const {
    for (uint32_t i = tail_; i != kNilNode; i = slab.node(i).prev) {
      const SlabNode& n = slab.node(i);
      if (!fn(n.id, n.size)) {
        return;
      }
    }
  }

  // Debug-only structural validation (O(n)); used by tests.
  size_t CheckConsistent(const NodeSlab& slab) const;

 private:
  uint32_t head_ = kNilNode;
  uint32_t tail_ = kNilNode;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_SLAB_LRU_H_
