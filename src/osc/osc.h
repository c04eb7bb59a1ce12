// Object Storage Cache (OSC) manager (§4.2, §6.1, Fig 6).
//
// The OSC caches objects in cloud object storage. Because object-storage
// writes cost 12.5x reads, small objects are packed into blocks (16 MB /
// up to 40 objects by default) before being written; reads use byte-range
// fetches, so a cache hit costs one GET regardless of packing. Eviction is
// lazy: the manager marks items Evicted in metadata (off the request path)
// and garbage-collects blocks once at least half their bytes are dead,
// rewriting the survivors into fresh blocks. Billed capacity is live bytes
// plus the garbage that packing leaves behind.
//
// Metadata layout:
//  * Objects. The replacement order (an EvictionCache that never evicts on
//    its own) holds exactly the live objects, so its FlatIndex answers "is
//    this object live?" and its 32-byte slab node holds all the object's
//    metadata: its size (SizeAtSlot) and, in the node's owner word
//    (TagAtSlot), the slot of the block holding its live copy. A hit is one
//    probe of the order's index, and so is an admission
//    (TouchOrInsertPrehashed), which writes the block slot into the node
//    the probe just reached.
//  * Blocks. A vector of block records indexed by block slot; a freed slot
//    (its block collected, or closed empty) goes on a free list and the next
//    block opened reuses it. Each block records its id, numbered in the order
//    blocks open, so order never depends on slot reuse.
//  * Members. Every copy placed in a block, live or dead, is its object id
//    in one append-only member log. Only the block being filled appends, so
//    each block's members are one run [first, first + objects) of the log.
//    Collecting a block drops its run; once dropped entries outnumber live
//    ones, the log is compacted in place with the runs kept in log order,
//    so the filling block's run stays last. A dead copy exists only in its
//    block's run and dead counters until GC rewrites the block.
//  * GC list. A vector of due block slots, each there at most once (a
//    per-block scheduled bit), sorted by block id when RunGc drains it: GC
//    visits due blocks in ascending id order, which fixes which survivors
//    repack into which new block.

#ifndef MACARON_SRC_OSC_OSC_H_
#define MACARON_SRC_OSC_OSC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

// GC a closed block once dead bytes reach this fraction of its bytes.
inline constexpr double kGcDeadFraction = 0.5;

struct PackingConfig {
  uint64_t block_bytes = 16ull * 1000 * 1000;
  uint32_t max_objects_per_block = 40;
  // Replacement policy ordering lazy eviction (LRU by default, §4.2).
  EvictionPolicyKind policy = EvictionPolicyKind::kLru;
  // Disable packing entirely (one PUT per object) for the §7.4 ablation.
  bool packing_enabled = true;
};

class ObjectStorageCache {
 public:
  explicit ObjectStorageCache(const PackingConfig& config);

  // --- Request path ---
  //
  // The Prehashed variants take h = Mix64(id) from a caller that already
  // hashed the request (the engines hash once at ingest); the plain forms
  // hash internally. `h` must be exactly Mix64(id), not any per-id hash:
  // GC and eviction reach objects by id alone and recompute Mix64 to find
  // their order slots (debug builds check it).

  // True if `id` is Active; touches it in the replacement order. Counts one
  // GET.
  bool Lookup(ObjectId id) { return LookupPrehashed(id, Mix64(id)); }
  bool LookupPrehashed(ObjectId id, uint64_t h);
  // Probe without promotion or op accounting.
  bool Contains(ObjectId id) const;
  // Admits (or re-admits) an object: appended to the open packing block,
  // which flushes (one PUT) when full.
  void Admit(ObjectId id, uint64_t size) { AdmitPrehashed(id, Mix64(id), size); }
  void AdmitPrehashed(ObjectId id, uint64_t h, uint64_t size);
  // Marks `id` Deleted and updates GC bookkeeping.
  void Delete(ObjectId id) { DeletePrehashed(id, Mix64(id)); }
  void DeletePrehashed(ObjectId id, uint64_t h);
  // Hints the CPU to pull `h`'s replacement-order index lines; the engines'
  // batch loops call this for an upcoming request while processing the
  // current one. Advisory only. That index is the only hash probe a hit
  // makes, so the prefetch covers the whole hit path's lookup.
  void PrefetchPrehashed(uint64_t h) const { order_->PrefetchPrehashed(h); }

  // --- Maintenance (off the request path) ---

  // Flushes a partially filled open block (timer-driven in the prototype).
  void FlushOpenBlock();
  // Lazy eviction: walks the replacement order from the cold end, marking
  // items Evicted until live bytes fit `target_bytes`, then collects
  // garbage.
  void EvictToCapacity(uint64_t target_bytes);
  // Rewrites every block whose dead fraction reached the threshold.
  void RunGc();

  // --- Accounting ---

  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t garbage_bytes() const { return garbage_bytes_; }
  // Billed bytes: everything resident in object storage.
  uint64_t stored_bytes() const { return live_bytes_ + garbage_bytes_; }
  size_t num_live_objects() const { return order_->num_entries(); }
  // Blocks in object storage, the open one included.
  size_t num_blocks() const { return live_blocks_; }

  struct OpCounts {
    uint64_t puts = 0;            // block flush writes
    uint64_t gets = 0;            // byte-range reads serving hits
    uint64_t gc_block_reads = 0;  // whole-block reads during GC
  };
  // Returns counters accumulated since the previous call and resets them.
  OpCounts TakeOps();

  // Introspection for invariant checks (tests, debugging): per-block byte
  // and deadness counters, and the number of blocks awaiting GC. A dead
  // re-fetched object legitimately appears as dead bytes in two blocks (the
  // stale copy and the re-admitted one) until GC rewrites them.
  struct BlockDebug {
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint32_t objects = 0;
    uint32_t dead_objects = 0;
    bool open = false;
  };
  std::vector<BlockDebug> DebugBlocks() const;
  size_t gc_pending_blocks() const { return gc_list_.size(); }

  // Hottest-first iteration over live objects (used for cache priming).
  void ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
    order_->ForEachHotOrder(fn);
  }

  const PackingConfig& config() const { return config_; }

  // Aborts unless the metadata agrees with itself: every object in the
  // replacement order has a tag naming a live block whose run lists it;
  // live blocks' runs lie inside the member log without overlapping, the
  // open block's run ends it, and the dropped-entry counter is the rest of
  // the log; no free-list slot is live, and num_blocks() counts the live
  // ones; the GC list holds each scheduled block once, all closed; per-block
  // live bytes (bytes - dead bytes) sum to live_bytes() and to the order's
  // used bytes, and per-block dead bytes sum to garbage_bytes(). O(live
  // objects x objects per block + blocks x log(blocks)); for tests, like
  // IntrusiveList::CheckConsistent.
  void CheckConsistent() const;

  // Attaches packing/GC counters ("osc" component); nullptr (the default)
  // detaches, leaving a null-check per site.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Observer invoked once per object evicted by EvictToCapacity (lazy
  // capacity eviction), before GC runs. The engines use it to invalidate
  // in-flight fill entries for evicted objects (inflight.h): a fill whose
  // target was evicted must not coalesce later requests. Deletes are not
  // reported (the caller initiated those itself); GC rewrites never touch
  // live objects. nullptr (the default) disables.
  void set_evict_observer(std::function<void(ObjectId)> observer) {
    evict_observer_ = std::move(observer);
  }

 private:
  static constexpr uint32_t kNoBlock = 0xffffffffu;

  struct Block {
    uint64_t id = 0;  // opening order, from 1; 0 while the slot is free
    uint64_t bytes = 0;
    uint64_t dead_bytes = 0;
    uint32_t first = 0;    // start of the block's run in members_
    uint32_t objects = 0;  // copies placed, live or dead: the run's length
    uint32_t dead_objects = 0;
    bool open = false;
    bool scheduled = false;  // on gc_list_
  };

  // Appends a copy of `id` to the open block (or to a block of its own when
  // packing is off), flushing the block once full; returns the block's slot.
  uint32_t PlaceCopy(ObjectId id, uint64_t size);
  // Takes a block slot (free list first) for a new, empty block whose run
  // starts at the log's end.
  uint32_t NewBlock();
  // Returns a block's slot to the free list and drops its run, compacting
  // the member log once dropped entries outnumber live ones.
  void FreeBlock(uint32_t slot);
  void CompactMembers();
  // Turns a copy of `size` bytes in block `slot` into garbage.
  void MarkDead(uint32_t slot, uint64_t size);
  void MaybeScheduleGc(uint32_t slot);

  PackingConfig config_;
  std::vector<Block> blocks_;         // by block slot
  std::vector<uint32_t> free_blocks_;  // free block slots, reused last-in first-out
  size_t live_blocks_ = 0;
  std::vector<ObjectId> members_;  // the member log
  size_t dropped_members_ = 0;     // log entries no live block's run covers
  // Due block slots, each scheduled once; RunGc sorts them by block id.
  std::vector<uint32_t> gc_list_;
  // Replacement ordering, holding exactly the live objects; it never evicts
  // on its own (EvictToCapacity shrinks it temporarily).
  std::unique_ptr<EvictionCache> order_;
  uint32_t open_block_ = kNoBlock;
  uint64_t next_block_id_ = 1;
  uint64_t live_bytes_ = 0;
  uint64_t garbage_bytes_ = 0;
  OpCounts ops_;
  std::function<void(ObjectId)> evict_observer_;
  obs::Counter* m_admits_ = nullptr;
  obs::Counter* m_deletes_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_block_flushes_ = nullptr;
  obs::Counter* m_gc_blocks_ = nullptr;
  obs::Counter* m_gc_reclaimed_bytes_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_OSC_OSC_H_
