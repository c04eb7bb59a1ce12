#include "src/cache/eviction_policy.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/cache/lru_cache.h"
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

uint32_t EvictionCache::TouchOrInsertPrehashed(ObjectId id, uint64_t hash, uint64_t size,
                                               bool* inserted) {
  const bool hit = GetPrehashed(id, hash);
  if (!hit) {
    PutPrehashed(id, hash, size);
  }
  const uint32_t slot = SlotOfPrehashed(id, hash);
  *inserted = !hit && slot != kNoSlot;
  return slot;
}

namespace {

// The walk SLRU and S3-FIFO share over their two queues: eviction order is
// the cold queue (probation, small) back to front, then the warm one
// (protected, main); hot order is the warm queue front to back, then the
// cold one. Stops at the first false.
void WalkTwoQueues(const NodeSlab& slab, const IntrusiveList& cold, const IntrusiveList& warm,
                   bool evict_order, const EvictionCache::VisitFn& fn) {
  bool keep_going = true;
  const auto visit = [&](ObjectId id, uint64_t size) { return keep_going = fn(id, size); };
  for (const IntrusiveList* queue : {evict_order ? &cold : &warm, evict_order ? &warm : &cold}) {
    if (evict_order) {
      queue->ForEachBackToFront(slab, visit);
    } else {
      queue->ForEachFrontToBack(slab, visit);
    }
    if (!keep_going) {
      return;
    }
  }
}

// --- FIFO: insertion order, no promotion ---

class FifoPolicy final : public SlabPolicy<FifoPolicy> {
 public:
  explicit FifoPolicy(uint64_t capacity) : SlabPolicy(capacity) {}

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    return table_.Find(id, hash) != kNoSlot;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = table_.Find(id, hash);
    if (n != kNoSlot) {
      SlabNode& e = table_.node(n);
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
    queue_.PushFront(table_.slab(), Admit(id, hash, size));
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = table_.Find(id, hash);
    if (n == kNoSlot) {
      return false;
    }
    queue_.Remove(table_.slab(), n);
    Drop(n);
    return true;
  }

  void Resize(uint64_t capacity) override {
    capacity_ = capacity;
    EvictToFit(0);
  }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    queue_.ForEachBackToFront(table_.slab(), fn);
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    queue_.ForEachFrontToBack(table_.slab(), fn);
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kFifo; }

 private:
  void EvictToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && !queue_.empty()) {
      EvictTail(queue_);
    }
  }

  IntrusiveList queue_;  // front = newest
};

// --- SLRU: probationary (20%) + protected (80%) segments ---

class SlruPolicy final : public SlabPolicy<SlruPolicy> {
 public:
  explicit SlruPolicy(uint64_t capacity) : SlabPolicy(capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = table_.Find(id, hash);
    if (n == kNoSlot) {
      return false;
    }
    Touch(n);
    return true;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = table_.Find(id, hash);
    if (n != kNoSlot) {
      SlabNode& e = table_.node(n);
      const uint64_t old_size = e.size;
      e.size = size;
      used_ += size - old_size;
      if (segment_[n] == kProtectedSeg) {
        protected_bytes_ += size - old_size;
      }
      Touch(n);
      EvictProbationToFit(0);
      return;
    }
    if (size > capacity_) {
      return;
    }
    EvictProbationToFit(size);
    const uint32_t fresh = Admit(id, hash, size);
    segment_.resize(table_.allocated_nodes());
    segment_[fresh] = kProbationSeg;  // a reused slot's old segment must not survive
    probation_.PushFront(table_.slab(), fresh);
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = table_.Find(id, hash);
    if (n == kNoSlot) {
      return false;
    }
    if (segment_[n] == kProtectedSeg) {
      protected_bytes_ -= table_.node(n).size;
      protected_.Remove(table_.slab(), n);
    } else {
      probation_.Remove(table_.slab(), n);
    }
    Drop(n);
    return true;
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    DemoteProtectedOverflow();
    EvictProbationToFit(0);
  }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    WalkTwoQueues(table_.slab(), probation_, protected_, /*evict_order=*/true, fn);
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    WalkTwoQueues(table_.slab(), probation_, protected_, /*evict_order=*/false, fn);
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kSlru; }

 private:
  static constexpr uint8_t kProbationSeg = 0;
  static constexpr uint8_t kProtectedSeg = 1;

  // Hit handling for a resident node: refresh within protected, or promote
  // probation -> protected.
  void Touch(uint32_t n) {
    if (segment_[n] == kProtectedSeg) {
      protected_.MoveToFront(table_.slab(), n);
    } else {
      probation_.Remove(table_.slab(), n);
      protected_.PushFront(table_.slab(), n);
      protected_bytes_ += table_.node(n).size;
      segment_[n] = kProtectedSeg;
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
      protected_.Remove(table_.slab(), n);
      protected_bytes_ -= table_.node(n).size;
      probation_.PushFront(table_.slab(), n);
      segment_[n] = kProbationSeg;
    }
    EvictProbationToFit(0);
  }

  void EvictProbationToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && !probation_.empty()) {
      EvictTail(probation_);
    }
    // Degenerate case: everything sits in protected and still over budget.
    while (used_ + incoming > capacity_ && !protected_.empty()) {
      protected_bytes_ -= table_.node(protected_.tail()).size;
      EvictTail(protected_);
    }
  }

  uint64_t protected_cap_ = 0;
  uint64_t protected_bytes_ = 0;  // used_ less the probation segment's bytes
  std::vector<uint8_t> segment_;  // by slot: kProbationSeg or kProtectedSeg
  IntrusiveList probation_;  // front = MRU
  IntrusiveList protected_;
};

// --- S3-FIFO (simplified): small FIFO + main FIFO + ghost table ---

class S3FifoPolicy final : public SlabPolicy<S3FifoPolicy> {
 public:
  explicit S3FifoPolicy(uint64_t capacity) : SlabPolicy(capacity) { SetCapacity(capacity); }

  bool GetPrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = table_.Find(id, hash);
    if (n == kNoSlot) {
      return false;
    }
    Bump(bits_[n]);
    return true;
  }

  void PutPrehashed(ObjectId id, uint64_t hash, uint64_t size) override {
    const uint32_t n = table_.Find(id, hash);
    if (n != kNoSlot) {
      Bump(bits_[n]);
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
    // inserts reuse the victim's low hash bits, read from its index cell;
    // the table's capacity cap keeps positions a function of those bits
    // alone).
    const uint32_t ghost = ghost_.ErasePrehashed(id, hash, GhostKeys{&ghost_ids_});
    const bool in_main = ghost != FlatIndex::kEmpty;
    if (in_main) {
      ghost_free_.push_back(ghost);  // stale deque entry ages out later
    }
    const uint32_t fresh = Admit(id, hash, size);
    bits_.resize(table_.allocated_nodes());
    bits_[fresh] = in_main ? kInMainBit : 0;  // a reused slot starts afresh
    (in_main ? main_ : small_).PushFront(table_.slab(), fresh);
    if (!in_main) {
      small_bytes_ += size;
    }
  }

  bool ErasePrehashed(ObjectId id, uint64_t hash) override {
    const uint32_t n = table_.Find(id, hash);
    if (n == kNoSlot) {
      return false;
    }
    if (InMain(bits_[n])) {
      main_.Remove(table_.slab(), n);
    } else {
      small_bytes_ -= table_.node(n).size;
      small_.Remove(table_.slab(), n);
    }
    Drop(n);
    return true;
  }

  void Resize(uint64_t capacity) override {
    SetCapacity(capacity);
    EvictToFit(0);
  }

  void ForEachEvictOrder(const VisitFn& fn) const override {
    WalkTwoQueues(table_.slab(), small_, main_, /*evict_order=*/true, fn);
  }
  void ForEachHotOrder(const VisitFn& fn) const override {
    WalkTwoQueues(table_.slab(), small_, main_, /*evict_order=*/false, fn);
  }
  EvictionPolicyKind kind() const override { return EvictionPolicyKind::kS3Fifo; }

 private:
  // Per-slot state byte (bits_): low bits = access frequency (capped at 3),
  // kInMainBit set while the entry sits in the main queue.
  static constexpr uint8_t kInMainBit = 1u << 7;

  static uint8_t Freq(uint8_t bits) { return bits & (kInMainBit - 1); }
  static bool InMain(uint8_t bits) { return (bits & kInMainBit) != 0; }
  static void Bump(uint8_t& bits) {
    if (Freq(bits) < 3) {
      ++bits;  // freq lives in the low bits
    }
  }

  void SetCapacity(uint64_t capacity) {
    capacity_ = capacity;
    small_cap_ = capacity / 10;
  }

  void EvictToFit(uint64_t incoming) {
    while (used_ + incoming > capacity_ && num_entries() > 0) {
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
    small_.Remove(table_.slab(), n);
    small_bytes_ -= table_.node(n).size;
    if (Freq(bits_[n]) > 0) {
      // Promote to main with a fresh frequency.
      bits_[n] = kInMainBit;
      main_.PushFront(table_.slab(), n);
    } else {
      const uint32_t victim_hash32 = table_.Hash32(n);  // before Remove refills the cell
      Drop(n);
      GhostInsert(table_.node(n).id, victim_hash32);
      Notify(n);
    }
  }

  void EvictMain() {
    MACARON_CHECK(!main_.empty());
    // Second chance: an entry with a positive frequency goes back to the
    // head with the frequency decremented.
    while (Freq(bits_[main_.tail()]) > 0) {
      const uint32_t n = main_.tail();
      --bits_[n];
      main_.MoveToFront(table_.slab(), n);
    }
    EvictTail(main_);
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

  uint64_t small_cap_ = 0;
  uint64_t small_bytes_ = 0;
  std::vector<uint8_t> bits_;  // by slot: frequency and kInMainBit
  IntrusiveList small_;  // front = newest
  IntrusiveList main_;
  FlatIndex ghost_;                   // ghost id -> ghost_ids_ slot
  std::vector<ObjectId> ghost_ids_;   // the ghost ids, keyed by ghost_ values
  std::vector<uint32_t> ghost_free_;  // ghost_ids_ slots no ghost holds
  std::deque<std::pair<ObjectId, uint32_t>> ghost_order_;  // (id, low hash bits)
};

}  // namespace

std::unique_ptr<EvictionCache> MakeEvictionCache(EvictionPolicyKind kind,
                                                 uint64_t capacity_bytes) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<LruCache>(capacity_bytes);
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
