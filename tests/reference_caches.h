// Seed-semantics reference caches for differential testing.
//
// These are the original std::list + std::unordered_map implementations the
// slab cache core (src/cache/slab_lru.h, flat_index.h) replaced, kept
// verbatim so that the differential test suite can replay randomized
// workloads against both implementations and assert bit-identical hit/miss
// sequences, eviction-callback order, and byte accounting. Nothing in the
// simulator uses these classes. Do not "fix" or optimize them: their value
// is being a faithful copy of the seed semantics, allocation behavior
// included.
//
// The policies have no slab slots: SlotOfPrehashed and their eviction
// callbacks report EvictionCache::kNoSlot, SizeAtSlot and TagAtSlot return
// 0, and SetTagAtSlot ignores its tag.

#ifndef MACARON_TESTS_REFERENCE_CACHES_H_
#define MACARON_TESTS_REFERENCE_CACHES_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/cache/eviction_policy.h"
#include "src/cache/replay_batch.h"
#include "src/common/check.h"
#include "src/common/sim_time.h"
#include "src/trace/request.h"

namespace macaron {

// Seed LruCache: node-based list + unordered_map.
class RefLruCache {
 public:
  using EvictCallback = std::function<void(ObjectId, uint64_t size)>;

  explicit RefLruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  bool Get(ObjectId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  bool Contains(ObjectId id) const { return index_.count(id) != 0; }

  uint64_t SizeOf(ObjectId id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? 0 : it->second->size;
  }

  void Put(ObjectId id, uint64_t size) {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      used_ -= it->second->size;
      used_ += size;
      it->second->size = size;
      lru_.splice(lru_.begin(), lru_, it->second);
      if (used_ > capacity_) {
        EvictToFit(0);
      }
      return;
    }
    if (size > capacity_) {
      return;  // cannot admit
    }
    EvictToFit(size);
    lru_.push_front(Entry{id, size});
    index_[id] = lru_.begin();
    used_ += size;
  }

  bool Erase(ObjectId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    used_ -= it->second->size;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Resize(uint64_t capacity_bytes) {
    capacity_ = capacity_bytes;
    EvictToFit(0);
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_entries() const { return index_.size(); }

  void set_evict_callback(EvictCallback cb) { evict_cb_ = std::move(cb); }

  void ForEachMruToLru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
    for (const Entry& e : lru_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
  }
  void ForEachLruToMru(const std::function<bool(ObjectId, uint64_t)>& fn) const {
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
  }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
  };

  void EvictToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && !lru_.empty()) {
      const Entry victim = lru_.back();
      lru_.pop_back();
      index_.erase(victim.id);
      used_ -= victim.size;
      if (evict_cb_) {
        evict_cb_(victim.id, victim.size);
      }
    }
    MACARON_CHECK(used_ + incoming <= capacity_ || lru_.empty());
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<Entry> lru_;  // front = MRU
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_;
  EvictCallback evict_cb_;
};

// Seed TtlCache.
class RefTtlCache {
 public:
  using EvictCallback = std::function<void(ObjectId, uint64_t size)>;

  explicit RefTtlCache(SimDuration ttl) : ttl_(ttl) {}

  bool Get(ObjectId id, SimTime now) {
    Expire(now);
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    it->second->last_access = now;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Put(ObjectId id, uint64_t size, SimTime now) {
    Expire(now);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      used_ -= it->second->size;
      used_ += size;
      it->second->size = size;
      it->second->last_access = now;
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(Entry{id, size, now});
    index_[id] = order_.begin();
    used_ += size;
  }

  bool Erase(ObjectId id) {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    used_ -= it->second->size;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Expire(SimTime now) {
    while (!order_.empty() && order_.back().last_access + ttl_ < now) {
      const Entry victim = order_.back();
      order_.pop_back();
      index_.erase(victim.id);
      used_ -= victim.size;
      if (evict_cb_) {
        evict_cb_(victim.id, victim.size);
      }
    }
  }

  void SetTtl(SimDuration ttl, SimTime now) {
    MACARON_CHECK(ttl > 0);
    ttl_ = ttl;
    Expire(now);
  }

  SimDuration ttl() const { return ttl_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_entries() const { return index_.size(); }

  void set_evict_callback(EvictCallback cb) { evict_cb_ = std::move(cb); }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
    SimTime last_access;
  };

  SimDuration ttl_;
  uint64_t used_ = 0;
  std::list<Entry> order_;  // front = most recently accessed
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_;
  EvictCallback evict_cb_;
};

namespace reference_detail {

// Seed policy implementations behind the EvictionCache interface.
// allocated_nodes() reports 0: the reference caches have no slab. Their
// indices are std::unordered_map keyed by id, so the Prehashed entry points
// take the caller's hash and ignore it — which is exactly what makes them a
// useful differential oracle for the hash-once path: any disagreement with
// the slab caches means the prehashed plumbing changed semantics.

// Mirrors the production ReplayKernel (eviction_policy.cc) over the seed
// semantics: GET admits on miss and counts misses/missed bytes.
inline EvictionCache::MiniSimStats RefReplay(EvictionCache& cache, const ReplayBatch& batch) {
  EvictionCache::MiniSimStats stats;
  const size_t n = batch.size();
  for (size_t k = 0; k < n; ++k) {
    const ObjectId id = batch.ids[k];
    switch (batch.ops[k]) {
      case Op::kGet:
        if (!cache.Get(id)) {
          ++stats.misses;
          stats.missed_bytes += batch.sizes[k];
          cache.Put(id, batch.sizes[k]);
        }
        break;
      case Op::kPut:
        cache.Put(id, batch.sizes[k]);
        break;
      case Op::kDelete:
        cache.Erase(id);
        break;
    }
  }
  return stats;
}

class RefLruPolicy : public EvictionCache {
 public:
  explicit RefLruPolicy(uint64_t capacity) : cache_(capacity) {}

  bool GetPrehashed(ObjectId id, uint64_t) override { return cache_.Get(id); }
  bool ContainsPrehashed(ObjectId id, uint64_t) const override { return cache_.Contains(id); }
  uint32_t SlotOfPrehashed(ObjectId, uint64_t) const override { return kNoSlot; }
  uint64_t SizeAtSlot(uint32_t) const override { return 0; }
  uint32_t TagAtSlot(uint32_t) const override { return 0; }
  void SetTagAtSlot(uint32_t, uint32_t) override {}
  void PutPrehashed(ObjectId id, uint64_t, uint64_t size) override { cache_.Put(id, size); }
  bool ErasePrehashed(ObjectId id, uint64_t) override { return cache_.Erase(id); }
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override { return RefReplay(*this, batch); }
  void Resize(uint64_t capacity) override { cache_.Resize(capacity); }
  uint64_t capacity() const override { return cache_.capacity(); }
  uint64_t used_bytes() const override { return cache_.used_bytes(); }
  size_t num_entries() const override { return cache_.num_entries(); }
  size_t allocated_nodes() const override { return 0; }
  void set_evict_callback(EvictCallback cb) override {
    if (!cb) {
      cache_.set_evict_callback(nullptr);
      return;
    }
    cache_.set_evict_callback(
        [cb = std::move(cb)](ObjectId id, uint64_t size) { cb(id, size, kNoSlot); });
  }
  void ForEachEvictOrder(const VisitFn& fn) const override { cache_.ForEachLruToMru(fn); }
  void ForEachHotOrder(const VisitFn& fn) const override { cache_.ForEachMruToLru(fn); }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kLru; }

 private:
  RefLruCache cache_;
};

class RefFifoPolicy : public EvictionCache {
 public:
  explicit RefFifoPolicy(uint64_t capacity) : capacity_(capacity) {}

  bool GetPrehashed(ObjectId id, uint64_t) override { return index_.count(id) != 0; }
  bool ContainsPrehashed(ObjectId id, uint64_t) const override { return index_.count(id) != 0; }
  uint32_t SlotOfPrehashed(ObjectId, uint64_t) const override { return kNoSlot; }
  uint64_t SizeAtSlot(uint32_t) const override { return 0; }
  uint32_t TagAtSlot(uint32_t) const override { return 0; }
  void SetTagAtSlot(uint32_t, uint32_t) override {}
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override { return RefReplay(*this, batch); }

  void PutPrehashed(ObjectId id, uint64_t, uint64_t size) override {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      used_ -= it->second->size;
      used_ += size;
      it->second->size = size;  // refresh size, keep position
      EvictToFit(0);
      return;
    }
    if (size > capacity_) {
      return;
    }
    EvictToFit(size);
    queue_.push_front(Entry{id, size});
    index_[id] = queue_.begin();
    used_ += size;
  }

  bool ErasePrehashed(ObjectId id, uint64_t) override {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    used_ -= it->second->size;
    queue_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Resize(uint64_t capacity) override {
    capacity_ = capacity;
    EvictToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return used_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return 0; }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    for (const Entry& e : queue_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kFifo; }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
  };

  void EvictToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && !queue_.empty()) {
      const Entry victim = queue_.back();
      queue_.pop_back();
      index_.erase(victim.id);
      used_ -= victim.size;
      if (evict_cb_) {
        evict_cb_(victim.id, victim.size, kNoSlot);
      }
    }
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<Entry> queue_;  // front = newest
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_;
  EvictCallback evict_cb_;
};

class RefSlruPolicy : public EvictionCache {
 public:
  explicit RefSlruPolicy(uint64_t capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t) override {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    if (it->second.protected_segment) {
      protected_.splice(protected_.begin(), protected_, it->second.pos);
    } else {
      // Promote probation -> protected.
      const Entry e = *it->second.pos;
      probation_.erase(it->second.pos);
      probation_bytes_ -= e.size;
      protected_.push_front(e);
      protected_bytes_ += e.size;
      it->second = Slot{true, protected_.begin()};
      DemoteProtectedOverflow();
    }
    return true;
  }

  bool ContainsPrehashed(ObjectId id, uint64_t) const override { return index_.count(id) != 0; }
  uint32_t SlotOfPrehashed(ObjectId, uint64_t) const override { return kNoSlot; }
  uint64_t SizeAtSlot(uint32_t) const override { return 0; }
  uint32_t TagAtSlot(uint32_t) const override { return 0; }
  void SetTagAtSlot(uint32_t, uint32_t) override {}
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override { return RefReplay(*this, batch); }

  void PutPrehashed(ObjectId id, uint64_t, uint64_t size) override {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      const uint64_t old_size = it->second.pos->size;
      it->second.pos->size = size;
      if (it->second.protected_segment) {
        protected_bytes_ += size - old_size;
      } else {
        probation_bytes_ += size - old_size;
      }
      Get(id);
      EvictProbationToFit(0);
      return;
    }
    if (size > capacity_) {
      return;
    }
    EvictProbationToFit(size);
    probation_.push_front(Entry{id, size});
    probation_bytes_ += size;
    index_[id] = Slot{false, probation_.begin()};
  }

  bool ErasePrehashed(ObjectId id, uint64_t) override {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    if (it->second.protected_segment) {
      protected_bytes_ -= it->second.pos->size;
      protected_.erase(it->second.pos);
    } else {
      probation_bytes_ -= it->second.pos->size;
      probation_.erase(it->second.pos);
    }
    index_.erase(it);
    return true;
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    DemoteProtectedOverflow();
    EvictProbationToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return probation_bytes_ + protected_bytes_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return 0; }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    for (auto it = probation_.rbegin(); it != probation_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
    for (auto it = protected_.rbegin(); it != protected_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    for (const Entry& e : protected_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
    for (const Entry& e : probation_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kSlru; }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
  };
  struct Slot {
    bool protected_segment;
    std::list<Entry>::iterator pos;
  };

  void SetCapacity(uint64_t capacity) {
    capacity_ = capacity;
    protected_cap_ = capacity / 5 * 4;
  }

  void DemoteProtectedOverflow() {
    while (protected_bytes_ > protected_cap_ && !protected_.empty()) {
      const Entry e = protected_.back();
      protected_.pop_back();
      protected_bytes_ -= e.size;
      probation_.push_front(e);
      probation_bytes_ += e.size;
      index_[e.id] = Slot{false, probation_.begin()};
    }
    EvictProbationToFit(0);
  }

  void EvictProbationToFit(uint64_t incoming) {
    while (used_bytes() + incoming > capacity_ && !probation_.empty()) {
      const Entry victim = probation_.back();
      probation_.pop_back();
      probation_bytes_ -= victim.size;
      index_.erase(victim.id);
      if (evict_cb_) {
        evict_cb_(victim.id, victim.size, kNoSlot);
      }
    }
    // Degenerate case: everything sits in protected and still over budget.
    while (used_bytes() + incoming > capacity_ && !protected_.empty()) {
      const Entry victim = protected_.back();
      protected_.pop_back();
      protected_bytes_ -= victim.size;
      index_.erase(victim.id);
      if (evict_cb_) {
        evict_cb_(victim.id, victim.size, kNoSlot);
      }
    }
  }

  uint64_t capacity_ = 0;
  uint64_t protected_cap_ = 0;
  uint64_t probation_bytes_ = 0;
  uint64_t protected_bytes_ = 0;
  std::list<Entry> probation_;  // front = MRU
  std::list<Entry> protected_;
  std::unordered_map<ObjectId, Slot> index_;
  EvictCallback evict_cb_;
};

class RefS3FifoPolicy : public EvictionCache {
 public:
  explicit RefS3FifoPolicy(uint64_t capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t) override {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    if (it->second.pos->freq < 3) {
      ++it->second.pos->freq;
    }
    return true;
  }

  bool ContainsPrehashed(ObjectId id, uint64_t) const override { return index_.count(id) != 0; }
  uint32_t SlotOfPrehashed(ObjectId, uint64_t) const override { return kNoSlot; }
  uint64_t SizeAtSlot(uint32_t) const override { return 0; }
  uint32_t TagAtSlot(uint32_t) const override { return 0; }
  void SetTagAtSlot(uint32_t, uint32_t) override {}
  MiniSimStats ReplayMiniSim(const ReplayBatch& batch) override { return RefReplay(*this, batch); }

  void PutPrehashed(ObjectId id, uint64_t, uint64_t size) override {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      Get(id);
      return;  // immutable objects: size is stable
    }
    if (size > capacity_) {
      return;
    }
    EvictToFit(size);
    if (ghost_.count(id) != 0) {
      GhostErase(id);
      main_.push_front(Entry{id, size, 0});
      main_bytes_ += size;
      index_[id] = Slot{true, main_.begin()};
    } else {
      small_.push_front(Entry{id, size, 0});
      small_bytes_ += size;
      index_[id] = Slot{false, small_.begin()};
    }
  }

  bool ErasePrehashed(ObjectId id, uint64_t) override {
    const auto it = index_.find(id);
    if (it == index_.end()) {
      return false;
    }
    if (it->second.in_main) {
      main_bytes_ -= it->second.pos->size;
      main_.erase(it->second.pos);
    } else {
      small_bytes_ -= it->second.pos->size;
      small_.erase(it->second.pos);
    }
    index_.erase(it);
    return true;
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    EvictToFit(0);
  }

  uint64_t capacity() const override { return capacity_; }
  uint64_t used_bytes() const override { return small_bytes_ + main_bytes_; }
  size_t num_entries() const override { return index_.size(); }
  size_t allocated_nodes() const override { return 0; }
  void set_evict_callback(EvictCallback cb) override { evict_cb_ = std::move(cb); }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    for (auto it = small_.rbegin(); it != small_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
    for (auto it = main_.rbegin(); it != main_.rend(); ++it) {
      if (!fn(it->id, it->size)) {
        return;
      }
    }
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    for (const Entry& e : main_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
    for (const Entry& e : small_) {
      if (!fn(e.id, e.size)) {
        return;
      }
    }
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kS3Fifo; }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
    int freq;
  };
  struct Slot {
    bool in_main;
    std::list<Entry>::iterator pos;
  };

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
    const Entry e = small_.back();
    small_.pop_back();
    small_bytes_ -= e.size;
    index_.erase(e.id);
    if (e.freq > 0) {
      // Promote to main.
      main_.push_front(Entry{e.id, e.size, 0});
      main_bytes_ += e.size;
      index_[e.id] = Slot{true, main_.begin()};
    } else {
      GhostInsert(e.id);
      if (evict_cb_) {
        evict_cb_(e.id, e.size, kNoSlot);
      }
    }
  }

  void EvictMain() {
    MACARON_CHECK(!main_.empty());
    for (;;) {
      Entry e = main_.back();
      main_.pop_back();
      if (e.freq > 0) {
        // Second chance: reinsert at the head with decremented frequency.
        e.freq -= 1;
        main_.push_front(e);
        index_[e.id] = Slot{true, main_.begin()};
        continue;
      }
      main_bytes_ -= e.size;
      index_.erase(e.id);
      if (evict_cb_) {
        evict_cb_(e.id, e.size, kNoSlot);
      }
      return;
    }
  }

  void GhostInsert(ObjectId id) {
    if (ghost_.insert(id).second) {
      ghost_order_.push_back(id);
    }
    const size_t ghost_cap = std::max<size_t>(main_.size() + small_.size(), 1024);
    while (ghost_order_.size() > ghost_cap) {
      ghost_.erase(ghost_order_.front());
      ghost_order_.pop_front();
    }
  }

  void GhostErase(ObjectId id) {
    ghost_.erase(id);  // stale deque entry is skipped when it ages out
  }

  uint64_t capacity_ = 0;
  uint64_t small_cap_ = 0;
  uint64_t small_bytes_ = 0;
  uint64_t main_bytes_ = 0;
  std::list<Entry> small_;  // front = newest
  std::list<Entry> main_;
  std::unordered_map<ObjectId, Slot> index_;
  std::unordered_set<ObjectId> ghost_;
  std::deque<ObjectId> ghost_order_;
  EvictCallback evict_cb_;
};

}  // namespace reference_detail

// Factory mirroring MakeEvictionCache for the seed implementations.
inline std::unique_ptr<EvictionCache> MakeReferenceEvictionCache(
    EvictionPolicyKind kind, uint64_t capacity_bytes) {
  using namespace reference_detail;
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<RefLruPolicy>(capacity_bytes);
    case EvictionPolicyKind::kFifo:
      return std::make_unique<RefFifoPolicy>(capacity_bytes);
    case EvictionPolicyKind::kSlru:
      return std::make_unique<RefSlruPolicy>(capacity_bytes);
    case EvictionPolicyKind::kS3Fifo:
      return std::make_unique<RefS3FifoPolicy>(capacity_bytes);
  }
  MACARON_CHECK(false && "unknown eviction policy");
}

}  // namespace macaron

#endif  // MACARON_TESTS_REFERENCE_CACHES_H_
