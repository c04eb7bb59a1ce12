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

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

struct ReplayBatch;

enum class EvictionPolicyKind {
  kLru,
  kFifo,
  kSlru,
  kS3Fifo,
};

const char* EvictionPolicyName(EvictionPolicyKind kind);

// The contract shared by all policies. Semantics mirror LruCache: Get
// touches (policy-defined), Put inserts or refreshes and evicts to fit,
// objects larger than the capacity are not admitted.
class EvictionCache {
 public:
  // Eviction callbacks also receive the victim's slab slot, already freed
  // (see SlotOfPrehashed); slot-less implementations pass kNoSlot.
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

  // Hints the CPU to pull the key's index lines (tag metadata + cell) into
  // cache ahead of an operation on the same hash. Purely advisory — never
  // affects results. Policies override to prefetch their primary index
  // (S3-FIFO also pulls its ghost table); the replay loops call this for
  // request i+k while processing request i to hide the index's random-load
  // latency.
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

// Factory. Capacity in bytes.
std::unique_ptr<EvictionCache> MakeEvictionCache(EvictionPolicyKind kind,
                                                 uint64_t capacity_bytes);

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_EVICTION_POLICY_H_
