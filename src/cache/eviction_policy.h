// Pluggable eviction policies.
//
// Macaron uses LRU for both the OSC and the DRAM cache by default, but the
// design explicitly allows alternatives (§4.2), and its central claim is
// that *capacity* selection matters more than replacement refinement (§8;
// the paper supports it with Oracular, here the exact offline oracle on
// op-free prices, src/oracle/exact_oracle.h). This interface lets the OSC
// and the miniature simulation swap policies so that claim can be tested:
//
//   * kLru     — least recently used (the default)
//   * kFifo    — insertion order, no promotion (It's-time-to-revisit-LRU's
//                FIFO, the policy of the IBM trace paper)
//   * kSlru    — segmented LRU (20% probationary / 80% protected)
//   * kS3Fifo  — simplified S3-FIFO (small + main FIFO queues and a ghost
//                table; SOSP'23)
//
// All policies are metadata-only and byte-capacity bounded.
//
// The virtual surface is hash-once: every keyed operation takes the key's
// precomputed 64-bit index hash (the pipeline computes it exactly once per
// request, at ingest or sampler admission). The plain-key convenience
// wrappers hash with Mix64 and delegate, so an instance driven through them
// sees the Mix64(id) domain; callers supplying their own hash (the banks
// use their sampler's salted hash) must use the prehashed calls
// exclusively on that instance — see flat_index.h for the consistency
// rule. The hash picks table positions only; hit/miss/eviction results are
// identical for any hash domain.

#ifndef MACARON_SRC_CACHE_EVICTION_POLICY_H_
#define MACARON_SRC_CACHE_EVICTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/cache/replay_batch.h"
#include "src/cache/slab_table.h"
#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

enum class EvictionPolicyKind {
  kLru,
  kFifo,
  kSlru,
  kS3Fifo,
};

const char* EvictionPolicyName(EvictionPolicyKind kind);

// The contract shared by all policies: Get touches (policy-defined), Put
// inserts or refreshes and evicts to fit, objects larger than the capacity
// are not admitted.
class EvictionCache {
 public:
  // Eviction callbacks also receive the victim's slab slot, already freed
  // (see SlotOfPrehashed); slot-less implementations pass kNoSlot. Inside
  // the callback, TagAtSlot(slot) still returns the victim's tag: a freed
  // slot keeps it until a later admission reuses the slot.
  using EvictCallback = std::function<void(ObjectId, uint64_t size, uint32_t slot)>;
  using VisitFn = std::function<bool(ObjectId, uint64_t size)>;

  static constexpr uint32_t kNoSlot = 0xffffffffu;

  virtual ~EvictionCache() = default;

  // Plain-key wrappers: hash with Mix64 and delegate to the prehashed
  // entry points below.
  bool Get(ObjectId id) { return GetPrehashed(id, Mix64(id)); }
  bool Contains(ObjectId id) const { return ContainsPrehashed(id, Mix64(id)); }
  void Put(ObjectId id, uint64_t size) { PutPrehashed(id, Mix64(id), size); }
  bool Erase(ObjectId id) { return ErasePrehashed(id, Mix64(id)); }

  virtual bool GetPrehashed(ObjectId id, uint64_t hash) = 0;
  virtual bool ContainsPrehashed(ObjectId id, uint64_t hash) const = 0;
  virtual void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) = 0;
  virtual bool ErasePrehashed(ObjectId id, uint64_t hash) = 0;
  virtual void Resize(uint64_t capacity_bytes) = 0;

  // The slab slot holding `id`, or kNoSlot if absent; no touch, no op
  // accounting. A slot stays the same for as long as its entry is resident
  // (promotion, demotion and second chances move links, not nodes), is
  // freed only by Erase or eviction, and is reused only by a later Put, so
  // an owner can keep per-entry rows in a dense array indexed by slot.
  virtual uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const = 0;

  // The size stored with the entry in `slot`, which must be live (a slot
  // SlotOfPrehashed or TouchOrInsertPrehashed returned since, not freed).
  // Slot-less implementations return 0.
  virtual uint64_t SizeAtSlot(uint32_t slot) const = 0;

  // A 32-bit word the owner keeps with the entry in `slot` (the OSC keeps
  // the slot of the block holding the object's copy). The policy never
  // reads or changes it: it survives hits, refreshes, promotion, demotion
  // and second chances, and reads back 0 after an admission until the owner
  // sets it. Slot-less implementations return 0 and ignore sets.
  virtual uint32_t TagAtSlot(uint32_t slot) const = 0;
  virtual void SetTagAtSlot(uint32_t slot, uint32_t tag) = 0;

  // GetPrehashed and, on a miss, PutPrehashed, in one call: touches a
  // resident `id` per policy or inserts it (evicting to fit, with the same
  // callbacks). Returns the entry's slot, kNoSlot if `size` exceeds the
  // capacity, and sets *inserted iff this call admitted the entry. The
  // default makes those calls and SlotOfPrehashed; LRU overrides it with one
  // index probe.
  virtual uint32_t TouchOrInsertPrehashed(ObjectId id, uint64_t hash, uint64_t size,
                                          bool* inserted);

  // Hints the CPU to pull the key's index lines (tag metadata + cell) into
  // cache ahead of an operation on the same hash. Purely advisory — never
  // affects results. The replay loops call this for request i+k while
  // processing request i to hide the index's random-load latency.
  virtual void PrefetchPrehashed(uint64_t) const {}

  virtual uint64_t capacity() const = 0;
  virtual uint64_t used_bytes() const = 0;
  virtual size_t num_entries() const = 0;
  // Slab slots ever materialized (live + freelist); stops growing once the
  // cache reaches steady state (see slab_lru.h).
  virtual size_t allocated_nodes() const = 0;

  virtual void set_evict_callback(EvictCallback cb) = 0;

  // Iterates from the next eviction victim toward the most-protected entry.
  virtual void ForEachEvictOrder(const VisitFn& fn) const = 0;
  // Iterates from the most-protected entry toward the next victim (used by
  // cache priming, which wants the hottest data first).
  virtual void ForEachHotOrder(const VisitFn& fn) const = 0;

  virtual EvictionPolicyKind kind() const = 0;

  // Mini-sim window accounting returned by ReplayMiniSim.
  struct MiniSimStats {
    uint64_t misses = 0;
    uint64_t missed_bytes = 0;
  };

  // Replays a sampled batch with mini-sim semantics — Get counts and admits
  // on miss, Put inserts/refreshes, Delete erases — using the batch's
  // precomputed hash column. One virtual call per (grid point, batch); each
  // policy runs a devirtualized inner loop over the SoA columns.
  virtual MiniSimStats ReplayMiniSim(const ReplayBatch& batch) = 0;
};

// SlotOfPrehashed returns the table's lookups as they are: a miss is kNoSlot.
static_assert(SlabTable::kNone == EvictionCache::kNoSlot);

// The base of the four policies (LruCache, and FIFO, SLRU and S3-FIFO in
// eviction_policy.cc). Entries live in one SlabTable (slab_table.h) threaded
// by the policy's IntrusiveLists; the members that read only the table, the
// capacity or the byte count are implemented here once. P is the final
// policy class, so ReplayMiniSim's loop calls P's members directly. The
// policies reproduce the exact semantics (eviction order, callback
// sequence) of the original std::list + std::unordered_map implementations;
// the differential test suite pins this.
template <typename P>
class SlabPolicy : public EvictionCache {
 public:
  bool ContainsPrehashed(ObjectId id, uint64_t hash) const final {
    return table_.Find(id, hash) != kNoSlot;
  }
  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const final { return table_.Find(id, hash); }
  uint64_t SizeAtSlot(uint32_t slot) const final { return table_.node(slot).size; }
  uint32_t TagAtSlot(uint32_t slot) const final { return table_.node(slot).tag; }
  void SetTagAtSlot(uint32_t slot, uint32_t tag) final { table_.node(slot).tag = tag; }
  // The main index only: every request probes it, while S3-FIFO consults
  // its ghost table only on a fresh admit (and pulls its lines then, with
  // the eviction work as lead time). Prefetching both here was measurably
  // slower: four streams ahead of every request evict more than they hide.
  void PrefetchPrehashed(uint64_t hash) const final { table_.Prefetch(hash); }
  uint64_t capacity() const final { return capacity_; }
  uint64_t used_bytes() const final { return used_; }
  size_t num_entries() const final { return table_.size(); }
  size_t allocated_nodes() const final { return table_.allocated_nodes(); }
  void set_evict_callback(EvictCallback cb) final { evict_cb_ = std::move(cb); }

  // This is the analyzer's hottest code: one sampled request is replayed
  // against dozens of grid points, and the batch's hash column means none
  // of them rehashes. Each iteration prefetches the index lines of the
  // request kPrefetchAhead rows ahead (replay_batch.h).
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) final {
    P& cache = static_cast<P&>(*this);
    MiniSimStats stats;
    const size_t n = batch.size();
    for (size_t k = 0; k < n; ++k) {
      if (k + kPrefetchAhead < n) {
        cache.PrefetchPrehashed(batch.hashes[k + kPrefetchAhead]);
      }
      const ObjectId id = batch.ids[k];
      const uint64_t hash = batch.hashes[k];
      switch (batch.ops[k]) {
        case Op::kGet:
          if (!cache.GetPrehashed(id, hash)) {
            ++stats.misses;
            stats.missed_bytes += batch.sizes[k];
            cache.PutPrehashed(id, hash, batch.sizes[k]);  // admit on miss
          }
          break;
        case Op::kPut:
          cache.PutPrehashed(id, hash, batch.sizes[k]);
          break;
        case Op::kDelete:
          cache.ErasePrehashed(id, hash);
          break;
      }
    }
    return stats;
  }

 protected:
  explicit SlabPolicy(uint64_t capacity) : capacity_(capacity) {}

  // Admits an absent `id` into the table and counts its bytes; the caller
  // links the returned slot into a queue.
  uint32_t Admit(ObjectId id, uint64_t hash, uint64_t size) {
    used_ += size;
    return table_.Insert(id, hash, size);
  }
  // Gives back the bytes of `slot`, already unlinked from its queue, and
  // removes it from the table.
  void Drop(uint32_t slot) {
    used_ -= table_.node(slot).size;
    table_.Remove(slot);
  }
  // Reports the dropped `slot` to the eviction callback: a freed node keeps
  // its id, size and tag until a later admission reuses it.
  void Notify(uint32_t slot) const {
    if (evict_cb_) {
      const SlabNode& victim = table_.node(slot);
      evict_cb_(victim.id, victim.size, slot);
    }
  }
  // Evicts the tail of `queue`.
  void EvictTail(IntrusiveList& queue) {
    const uint32_t victim = queue.tail();
    queue.Remove(table_.slab(), victim);
    Drop(victim);
    Notify(victim);
  }

  SlabTable table_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  EvictCallback evict_cb_;
};

// Factory. Capacity in bytes; kLru makes an LruCache.
std::unique_ptr<EvictionCache> MakeEvictionCache(EvictionPolicyKind kind,
                                                 uint64_t capacity_bytes);

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_EVICTION_POLICY_H_
