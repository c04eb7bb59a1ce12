// TTL cache with sliding expiry (an item is evicted once it has not been
// accessed for TTL). Because every access refreshes the expiry by the same
// TTL, entries stay ordered by last access, so the structure is an LRU list
// with timestamps and expiry is an O(expired) scan from the cold end.
//
// Used by Macaron-TTL (§5.1, Appendix B) and by the static-TTL baselines of
// Fig 13. There is no capacity bound: object storage is elastic; the TTL is
// the only eviction driver.
//
// Backed by the slab cache core (slab_lru.h): each entry's last-access time
// sits beside the slab in a vector indexed by slot, and expired nodes return
// to the freelist for reuse, so steady-state operation allocates nothing per
// request.

#ifndef MACARON_SRC_CACHE_TTL_CACHE_H_
#define MACARON_SRC_CACHE_TTL_CACHE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/cache/slab_lru.h"
#include "src/common/hash.h"
#include "src/common/sim_time.h"
#include "src/trace/request.h"

namespace macaron {

class TtlCache {
 public:
  using EvictCallback = std::function<void(ObjectId, uint64_t size)>;

  explicit TtlCache(SimDuration ttl) : ttl_(ttl) {}

  // Looks up `id` at time `now`. On hit, refreshes the entry's expiry.
  bool Get(ObjectId id, SimTime now) { return GetPrehashed(id, Mix64(id), now); }
  // Inserts or refreshes `id`.
  void Put(ObjectId id, uint64_t size, SimTime now) {
    PutPrehashed(id, Mix64(id), size, now);
  }
  // Removes `id` if present.
  bool Erase(ObjectId id) { return ErasePrehashed(id, Mix64(id)); }

  // Prehashed fast path; same consistency rule as LruCache — one instance,
  // one hash per id across all calls.
  bool GetPrehashed(ObjectId id, uint64_t hash, SimTime now);
  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size, SimTime now);
  bool ErasePrehashed(ObjectId id, uint64_t hash);
  // Hints the CPU to pull `hash`'s index lines; see FlatIndex::Prefetch.
  void PrefetchPrehashed(uint64_t hash) const { index_.PrefetchPrehashed(hash); }

  // Evicts every entry whose last access is older than now - ttl. Called
  // lazily by Get/Put and explicitly at window boundaries.
  void Expire(SimTime now);

  // Changes the TTL and immediately expires under the new value.
  void SetTtl(SimDuration ttl, SimTime now);

  SimDuration ttl() const { return ttl_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_entries() const { return index_.size(); }
  // Slab slots ever materialized (live + freelist).
  size_t allocated_nodes() const { return slab_.allocated_nodes(); }

  void set_evict_callback(EvictCallback cb) { evict_cb_ = std::move(cb); }

 private:
  SimDuration ttl_;
  uint64_t used_ = 0;
  NodeSlab slab_;
  std::vector<SimTime> last_access_;  // by slot
  IntrusiveList order_;  // front = most recently accessed
  FlatIndex index_;
  EvictCallback evict_cb_;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_TTL_CACHE_H_
