#include "src/cache/eviction_policy.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "src/cache/flat_index.h"
#include "src/cache/lru_cache.h"
#include "src/cache/replay_batch.h"
#include "src/cache/slab_lru.h"
#include "src/common/check.h"

namespace macaron {

const char* EvictionPolicyName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::kFifo:
      return "fifo";
    case EvictionPolicyKind::kSlru:
      return "slru";
    case EvictionPolicyKind::kS3Fifo:
      return "s3fifo";
    default:
      return "unknown";
  }
}

namespace {

// SlotOfPrehashed returns index lookups as they are: a miss is kNoSlot.
static_assert(FlatIndex::kEmpty == EvictionCache::kNoSlot);

// All policies share the slab cache core (slab_lru.h): entries are NodeSlab
// slots threaded onto IntrusiveLists, looked up through a FlatIndex. The
// policies reproduce the exact semantics (eviction order, callback
// sequence) of the original std::list + std::unordered_map implementations;
// the differential test suite pins this.

// Mini-sim batch replay over SoA columns, instantiated per concrete policy
// (every policy class is final, so the Get/Put/Erase calls below bind
// statically — no virtual dispatch inside the loop). This is the analyzer's
// hottest code: one sampled request is replayed against dozens of grid
// points, and the batch's hash column means none of them rehashes.
// Each iteration also prefetches the index lines for the request
// kPrefetchAhead slots ahead (through the policy's statically-bound
// PrefetchPrehashed), overlapping the next probes' random loads with the
// current request's work. Eight requests ahead is far enough to cover an
// L2 miss at a few ns per request but close enough that the lines are
// still resident when their request arrives.
constexpr size_t kPrefetchAhead = 8;

template <typename CachePolicy>
EvictionCache::MiniSimStats ReplayKernel(CachePolicy& cache, const ReplayBatch& batch) {
  EvictionCache::MiniSimStats stats;
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

// --- LRU: delegates to LruCache ---

class LruPolicy final : public EvictionCache {
 public:
  explicit LruPolicy(uint64_t capacity) : cache_(capacity) {}

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    return cache_.GetPrehashed(id, hash);
  }
  bool ContainsPrehashed(ObjectId id, uint64_t hash) const override {
    return cache_.ContainsPrehashed(id, hash);
  }
  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    cache_.PutPrehashed(id, hash, size);
  }
  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    return cache_.ErasePrehashed(id, hash);
  }
  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const override {
    return cache_.SlotOfPrehashed(id, hash);
  }
  void PrefetchPrehashed(uint64_t hash) const override {
    cache_.PrefetchPrehashed(hash);
  }
  void Resize(uint64_t capacity) override { cache_.Resize(capacity); }
  uint64_t capacity() const override { return cache_.capacity(); }
  uint64_t used_bytes() const override { return cache_.used_bytes(); }
  size_t num_entries() const override { return cache_.num_entries(); }
  size_t allocated_nodes() const override { return cache_.allocated_nodes(); }
  void set_evict_callback(EvictCallback cb) override {
    cache_.set_evict_callback(std::move(cb));
  }
  void ForEachEvictOrder(const VisitFn& fn) const override { cache_.ForEachLruToMru(fn); }
  void ForEachHotOrder(const VisitFn& fn) const override { cache_.ForEachMruToLru(fn); }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kLru; }
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override {
    return ReplayKernel(cache_, batch);
  }

 private:
  LruCache cache_;
};

// --- FIFO: insertion order, no promotion ---

class FifoPolicy final : public EvictionCache {
 public:
  explicit FifoPolicy(uint64_t capacity) : capacity_(capacity) {}

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    return index_.FindPrehashed(id, hash, slab_) != FlatIndex::kEmpty;
  }
  bool ContainsPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_) != FlatIndex::kEmpty;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n != FlatIndex::kEmpty) {
      SlabNode& e = slab_.node(n);
      used_ -= e.size;
      used_ += size;
      e.size = size;  // refresh size, keep position
      EvictToFit(0);
      return;
    }
    if (size > capacity_) {
      return;
    }
    EvictToFit(size);
    const uint32_t fresh = slab_.Allocate(id, size, 0, static_cast<uint32_t>(hash));
    queue_.PushFront(slab_, fresh);
    index_.EmplacePrehashed(hash, fresh, &slab_);
    used_ += size;
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n == FlatIndex::kEmpty) {
      return false;
    }
    used_ -= slab_.node(n).size;
    queue_.Remove(slab_, n);
    index_.EraseCell(slab_.node(n).cell, &slab_);
    slab_.Free(n);
    return true;
  }

  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_);
  }

  void PrefetchPrehashed(uint64_t hash) const override {
    index_.PrefetchPrehashed(hash);
  }

  void Resize(uint64_t capacity) override {
    capacity_ = capacity;
    EvictToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return used_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return slab_.allocated_nodes(); }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    queue_.ForEachBackToFront(slab_, fn);
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    queue_.ForEachFrontToBack(slab_, fn);
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kFifo; }
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override {
    return ReplayKernel(*this, batch);
  }

 private:
  void EvictToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && !queue_.empty()) {
      const uint32_t victim = queue_.tail();
      const ObjectId victim_id = slab_.node(victim).id;
      const uint64_t victim_size = slab_.node(victim).size;
      queue_.Remove(slab_, victim);
      index_.EraseCell(slab_.node(victim).cell, &slab_);
      slab_.Free(victim);
      used_ -= victim_size;
      if (evict_cb_) {
        evict_cb_(victim_id, victim_size, victim);
      }
    }
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  NodeSlab slab_;
  IntrusiveList queue_;  // front = newest
  FlatIndex index_;
  EvictCallback evict_cb_;
};

// --- SLRU: probationary (20%) + protected (80%) segments ---

class SlruPolicy final : public EvictionCache {
 public:
  explicit SlruPolicy(uint64_t capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n == FlatIndex::kEmpty) {
      return false;
    }
    Touch(n);
    return true;
  }

  bool ContainsPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_) != FlatIndex::kEmpty;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n != FlatIndex::kEmpty) {
      SlabNode& e = slab_.node(n);
      const uint64_t old_size = e.size;
      e.size = size;
      if (e.stamp == kProtectedSeg) {
        protected_bytes_ += size - old_size;
      } else {
        probation_bytes_ += size - old_size;
      }
      Touch(n);
      EvictProbationToFit(0);
      return;
    }
    if (size > capacity_) {
      return;
    }
    EvictProbationToFit(size);
    const uint32_t fresh = slab_.Allocate(id, size, kProbationSeg, static_cast<uint32_t>(hash));
    probation_.PushFront(slab_, fresh);
    probation_bytes_ += size;
    index_.EmplacePrehashed(hash, fresh, &slab_);
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n == FlatIndex::kEmpty) {
      return false;
    }
    SlabNode& e = slab_.node(n);
    if (e.stamp == kProtectedSeg) {
      protected_bytes_ -= e.size;
      protected_.Remove(slab_, n);
    } else {
      probation_bytes_ -= e.size;
      probation_.Remove(slab_, n);
    }
    index_.EraseCell(e.cell, &slab_);
    slab_.Free(n);
    return true;
  }

  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_);
  }

  void PrefetchPrehashed(uint64_t hash) const override {
    index_.PrefetchPrehashed(hash);
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    DemoteProtectedOverflow();
    EvictProbationToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return probation_bytes_ + protected_bytes_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return slab_.allocated_nodes(); }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    bool keep_going = true;
    probation_.ForEachBackToFront(slab_, [&](ObjectId id, uint64_t size) {
      keep_going = fn(id, size);
      return keep_going;
    });
    if (keep_going) {
      protected_.ForEachBackToFront(slab_, fn);
    }
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    bool keep_going = true;
    protected_.ForEachFrontToBack(slab_, [&](ObjectId id, uint64_t size) {
      keep_going = fn(id, size);
      return keep_going;
    });
    if (keep_going) {
      probation_.ForEachFrontToBack(slab_, fn);
    }
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kSlru; }
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override {
    return ReplayKernel(*this, batch);
  }

 private:
  static constexpr uint64_t kProbationSeg = 0;
  static constexpr uint64_t kProtectedSeg = 1;

  // Hit handling for a resident node: refresh within protected, or promote
  // probation -> protected.
  void Touch(uint32_t n) {
    SlabNode& e = slab_.node(n);
    if (e.stamp == kProtectedSeg) {
      protected_.MoveToFront(slab_, n);
    } else {
      probation_.Remove(slab_, n);
      probation_bytes_ -= e.size;
      protected_.PushFront(slab_, n);
      protected_bytes_ += e.size;
      e.stamp = kProtectedSeg;
      DemoteProtectedOverflow();
    }
  }

  void SetCapacity(uint64_t capacity) {
    capacity_ = capacity;
    protected_cap_ = capacity / 5 * 4;
  }

  // Protected overflow demotes cold protected entries to probation MRU.
  void DemoteProtectedOverflow() {
    while (protected_bytes_ > protected_cap_ && !protected_.empty()) {
      const uint32_t n = protected_.tail();
      SlabNode& e = slab_.node(n);
      protected_.Remove(slab_, n);
      protected_bytes_ -= e.size;
      probation_.PushFront(slab_, n);
      probation_bytes_ += e.size;
      e.stamp = kProbationSeg;
    }
    EvictProbationToFit(0);
  }

  void EvictProbationToFit(uint64_t incoming) {
    while (used_bytes() + incoming > capacity_ && !probation_.empty()) {
      EvictBack(probation_, probation_bytes_);
    }
    // Degenerate case: everything sits in protected and still over budget.
    while (used_bytes() + incoming > capacity_ && !protected_.empty()) {
      EvictBack(protected_, protected_bytes_);
    }
  }

  void EvictBack(IntrusiveList& list, uint64_t& segment_bytes) {
    const uint32_t victim = list.tail();
    const ObjectId victim_id = slab_.node(victim).id;
    const uint64_t victim_size = slab_.node(victim).size;
    list.Remove(slab_, victim);
    segment_bytes -= victim_size;
    index_.EraseCell(slab_.node(victim).cell, &slab_);
    slab_.Free(victim);
    if (evict_cb_) {
      evict_cb_(victim_id, victim_size, victim);
    }
  }

  uint64_t capacity_ = 0;
  uint64_t protected_cap_ = 0;
  uint64_t probation_bytes_ = 0;
  uint64_t protected_bytes_ = 0;
  NodeSlab slab_;  // node stamp = segment
  IntrusiveList probation_;  // front = MRU
  IntrusiveList protected_;
  FlatIndex index_;
  EvictCallback evict_cb_;
};

// --- S3-FIFO (simplified): small FIFO + main FIFO + ghost table ---

class S3FifoPolicy final : public EvictionCache {
 public:
  explicit S3FifoPolicy(uint64_t capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n == FlatIndex::kEmpty) {
      return false;
    }
    Bump(slab_.node(n));
    return true;
  }

  bool ContainsPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_) != FlatIndex::kEmpty;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n != FlatIndex::kEmpty) {
      Bump(slab_.node(n));
      return;  // immutable objects: size is stable
    }
    if (size > capacity_) {
      return;
    }
    // Pull the ghost lines now so the membership check below doesn't stall
    // after the eviction work evicted them from L1/L2.
    ghost_.PrefetchPrehashed(hash);
    EvictToFit(size);
    // The ghost table lives in the same hash domain as the main index (its
    // inserts reuse the victim node's cached low hash bits; the table's
    // capacity cap keeps positions a function of those bits alone).
    const uint32_t ghost = ghost_.ErasePrehashed(id, hash, GhostKeys{&ghost_ids_});
    if (ghost != FlatIndex::kEmpty) {
      ghost_free_.push_back(ghost);  // stale deque entry ages out later
      const uint32_t fresh = slab_.Allocate(id, size, kInMainBit, static_cast<uint32_t>(hash));
      main_.PushFront(slab_, fresh);
      main_bytes_ += size;
      index_.EmplacePrehashed(hash, fresh, &slab_);
    } else {
      const uint32_t fresh = slab_.Allocate(id, size, 0, static_cast<uint32_t>(hash));
      small_.PushFront(slab_, fresh);
      small_bytes_ += size;
      index_.EmplacePrehashed(hash, fresh, &slab_);
    }
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = index_.FindPrehashed(id, hash, slab_);
    if (n == FlatIndex::kEmpty) {
      return false;
    }
    SlabNode& e = slab_.node(n);
    if (InMain(e)) {
      main_bytes_ -= e.size;
      main_.Remove(slab_, n);
    } else {
      small_bytes_ -= e.size;
      small_.Remove(slab_, n);
    }
    index_.EraseCell(e.cell, &slab_);
    slab_.Free(n);
    return true;
  }

  uint32_t SlotOfPrehashed(ObjectId id, uint64_t hash) const override {
    return index_.FindPrehashed(id, hash, slab_);
  }

  // Main index only: every request probes it, while the ghost table is
  // consulted only on a fresh admit (PutPrehashed pulls its lines then,
  // with the eviction work as lead time). Prefetching both here was
  // measurably slower — four streams ahead of every request evict more
  // than they hide.
  void PrefetchPrehashed(uint64_t hash) const override {
    index_.PrefetchPrehashed(hash);
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    EvictToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return small_bytes_ + main_bytes_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return slab_.allocated_nodes(); }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    bool keep_going = true;
    small_.ForEachBackToFront(slab_, [&](ObjectId id, uint64_t size) {
      keep_going = fn(id, size);
      return keep_going;
    });
    if (keep_going) {
      main_.ForEachBackToFront(slab_, fn);
    }
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    bool keep_going = true;
    main_.ForEachFrontToBack(slab_, [&](ObjectId id, uint64_t size) {
      keep_going = fn(id, size);
      return keep_going;
    });
    if (keep_going) {
      small_.ForEachFrontToBack(slab_, fn);
    }
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kS3Fifo; }
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override {
    return ReplayKernel(*this, batch);
  }

 private:
  // stamp layout: low bits = access frequency (capped at 3), kInMainBit set
  // while the node sits in the main queue.
  static constexpr uint64_t kInMainBit = 1ull << 8;

  static uint64_t Freq(const SlabNode& e) { return e.stamp & (kInMainBit - 1); }
  static bool InMain(const SlabNode& e) { return (e.stamp & kInMainBit) != 0; }
  static void Bump(SlabNode& e) {
    if (Freq(e) < 3) {
      e.stamp += 1;  // freq lives in the low stamp bits
    }
  }

  void SetCapacity(uint64_t capacity) {
    capacity_ = capacity;
    small_cap_ = capacity / 10;
  }

  void EvictToFit(uint64_t incoming) {
    while (used_bytes() + incoming > capacity_ && num_entries() > 0) {
      if (small_bytes_ > small_cap_ && !small_.empty()) {
        EvictSmall();
      } else if (!main_.empty()) {
        EvictMain();
      } else {
        EvictSmall();
      }
    }
  }

  void EvictSmall() {
    MACARON_CHECK(!small_.empty());
    const uint32_t n = small_.tail();
    SlabNode& e = slab_.node(n);
    small_.Remove(slab_, n);
    small_bytes_ -= e.size;
    if (Freq(e) > 0) {
      // Promote to main with a fresh frequency.
      e.stamp = kInMainBit;
      main_.PushFront(slab_, n);
      main_bytes_ += e.size;
    } else {
      const ObjectId victim_id = e.id;
      const uint64_t victim_size = e.size;
      const uint32_t victim_hash32 = e.hash32;
      index_.EraseCell(e.cell, &slab_);
      slab_.Free(n);
      GhostInsert(victim_id, victim_hash32);
      if (evict_cb_) {
        evict_cb_(victim_id, victim_size, n);
      }
    }
  }

  void EvictMain() {
    MACARON_CHECK(!main_.empty());
    for (;;) {
      const uint32_t n = main_.tail();
      SlabNode& e = slab_.node(n);
      main_.Remove(slab_, n);
      if (Freq(e) > 0) {
        // Second chance: reinsert at the head with decremented frequency.
        e.stamp -= 1;
        main_.PushFront(slab_, n);
        continue;
      }
      const ObjectId victim_id = e.id;
      const uint64_t victim_size = e.size;
      main_bytes_ -= victim_size;
      index_.EraseCell(e.cell, &slab_);
      slab_.Free(n);
      if (evict_cb_) {
        evict_cb_(victim_id, victim_size, n);
      }
      return;
    }
  }

  // The ghost table's key source: its values name ghost_ids_ slots.
  struct GhostKeys {
    const std::vector<ObjectId>* ids;
    ObjectId operator()(uint32_t slot) const { return (*ids)[slot]; }
  };

  void GhostInsert(ObjectId id, uint32_t hash32) {
    if (ghost_.FindPrehashed(id, hash32, GhostKeys{&ghost_ids_}) == FlatIndex::kEmpty) {
      uint32_t slot;
      if (ghost_free_.empty()) {
        slot = static_cast<uint32_t>(ghost_ids_.size());
        ghost_ids_.push_back(id);
      } else {
        slot = ghost_free_.back();
        ghost_free_.pop_back();
        ghost_ids_[slot] = id;
      }
      ghost_.EmplacePrehashed(hash32, slot);
      ghost_order_.emplace_back(id, hash32);
    }
    const size_t ghost_cap = std::max<size_t>(num_entries(), 1024);
    while (ghost_order_.size() > ghost_cap) {
      // A stale entry (its id readmitted since) erases the id's newer ghost
      // if it has one, as the id-keyed table always has.
      const auto& [old_id, old_hash32] = ghost_order_.front();
      const uint32_t slot = ghost_.ErasePrehashed(old_id, old_hash32, GhostKeys{&ghost_ids_});
      if (slot != FlatIndex::kEmpty) {
        ghost_free_.push_back(slot);
      }
      ghost_order_.pop_front();
    }
  }

  uint64_t capacity_ = 0;
  uint64_t small_cap_ = 0;
  uint64_t small_bytes_ = 0;
  uint64_t main_bytes_ = 0;
  NodeSlab slab_;
  IntrusiveList small_;  // front = newest
  IntrusiveList main_;
  FlatIndex index_;
  FlatIndex ghost_;                   // ghost id -> ghost_ids_ slot
  std::vector<ObjectId> ghost_ids_;   // the ghost ids, keyed by ghost_ values
  std::vector<uint32_t> ghost_free_;  // ghost_ids_ slots no ghost holds
  std::deque<std::pair<ObjectId, uint32_t>> ghost_order_;  // (id, low hash bits)
  EvictCallback evict_cb_;
};

}  // namespace

std::unique_ptr<EvictionCache> MakeEvictionCache(EvictionPolicyKind kind,
                                                 uint64_t capacity_bytes) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<LruPolicy>(capacity_bytes);
    case EvictionPolicyKind::kFifo:
      return std::make_unique<FifoPolicy>(capacity_bytes);
    case EvictionPolicyKind::kSlru:
      return std::make_unique<SlruPolicy>(capacity_bytes);
    case EvictionPolicyKind::kS3Fifo:
      return std::make_unique<S3FifoPolicy>(capacity_bytes);
  }
  MACARON_CHECK(false && "unknown eviction policy");
}

}  // namespace macaron
