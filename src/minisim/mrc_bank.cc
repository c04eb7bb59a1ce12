#include "src/minisim/mrc_bank.h"

#include <algorithm>
#include <numeric>

#include "src/cache/flat_index.h"
#include "src/cache/slab_lru.h"
#include "src/common/check.h"

namespace macaron {

namespace {
// How far ahead the timeline replay prefetches index lines, as in the
// per-grid ReplayKernel (eviction_policy.cc).
constexpr size_t kPrefetchAhead = 8;
}  // namespace

// The shared recency timeline of the one-pass LRU replay (see file
// comment). Slots hold each touch's size and slab node, oldest touch
// first; a dead slot has size kDeadSize, which fits no grid point, so
// eviction scans skip dead slots and too-large entries with one
// comparison.
class MrcBank::LruTimeline {
 public:
  explicit LruTimeline(const std::vector<uint64_t>& caps) {
    grid_.reserve(caps.size());
    for (const uint64_t cap : caps) {
      grid_.push_back(GridPoint{cap, 0, 0});
    }
  }

  // Replays `batch` in order, accumulating per-grid window counters. Stops
  // before the first GET whose size disagrees with a resident copy and
  // returns its row (batch.size() if none): the caller falls back to
  // per-grid caches from there.
  size_t Replay(const ReplayBatch& batch, uint64_t* misses, uint64_t* missed_bytes) {
    const size_t n = batch.size();
    for (size_t k = 0; k < n; ++k) {
      if (k + kPrefetchAhead < n) {
        index_.PrefetchPrehashed(batch.hashes[k + kPrefetchAhead]);
      }
      if (!Apply(batch.ids[k], batch.hashes[k], batch.sizes[k], batch.ops[k], misses,
                 missed_bytes)) {
        return k;
      }
    }
    return n;
  }

  // Per-grid LRU mini-caches holding exactly the timeline's residents, in
  // the same recency order, indexed by `sampler`'s hash (the batches'
  // hash column).
  std::vector<std::unique_ptr<EvictionCache>> ToCaches(const SpatialSampler& sampler) const {
    std::vector<std::unique_ptr<EvictionCache>> caches;
    caches.reserve(grid_.size());
    for (const GridPoint& g : grid_) {
      auto cache = MakeEvictionCache(EvictionPolicyKind::kLru, g.cap);
      for (size_t slot = g.floor; slot < slot_size_.size(); ++slot) {
        if (slot_size_[slot] <= g.cap) {  // live and fits: resident, oldest first
          const ObjectId id = slab_.node(slot_node_[slot]).id;
          cache->PutPrehashed(id, sampler.Hash(id), slot_size_[slot]);
        }
      }
      MACARON_CHECK(cache->used_bytes() == g.used);
      caches.push_back(std::move(cache));
    }
    return caches;
  }

  size_t allocated_nodes() const { return slab_.allocated_nodes(); }
  uint64_t compactions() const { return compactions_; }

 private:
  static constexpr uint64_t kDeadSize = ~0ull;

  struct GridPoint {
    uint64_t cap;    // mini capacity
    uint64_t used;   // resident bytes
    uint64_t floor;  // no resident entry sits below this slot
  };

  static bool Holds(const GridPoint& g, uint64_t slot, uint64_t size) {
    return slot >= g.floor && size <= g.cap;
  }

  // Evicts grid point g's LRU entries until `incoming` more bytes fit.
  // Requires incoming <= g.cap, so a byte still to free means a resident
  // entry of positive size remains at or above the floor.
  void EvictToFit(GridPoint& g, uint64_t incoming) {
    uint64_t used = g.used;
    uint64_t floor = g.floor;
    const uint64_t* sizes = slot_size_.data();
    while (used + incoming > g.cap) {
      MACARON_DCHECK(floor < slot_size_.size());
      while (sizes[floor] > g.cap) {
        ++floor;
        MACARON_DCHECK(floor < slot_size_.size());
      }
      used -= sizes[floor];
      ++floor;
    }
    g.used = used;
    g.floor = floor;
  }

  // One sampled request across every grid point; false (and no state
  // change) for a GET the timeline cannot represent.
  bool Apply(ObjectId id, uint64_t hash, uint64_t size, Op op, uint64_t* misses,
             uint64_t* missed_bytes) {
    uint32_t node = index_.FindPrehashed(id, hash, slab_);
    const bool live = node != FlatIndex::kEmpty;
    const uint64_t old_slot = live ? slab_.node(node).stamp : 0;
    const uint64_t old_size = live ? slab_.node(node).size : kDeadSize;
    if (op == Op::kDelete) {
      if (live) {
        for (GridPoint& g : grid_) {
          if (Holds(g, old_slot, old_size)) {
            g.used -= old_size;
          }
        }
        Kill(old_slot);
        index_.EraseCell(slab_.node(node).cell, &slab_);
        slab_.Free(node);
      }
      return true;
    }
    if (op == Op::kGet && live && size != old_size) {
      for (const GridPoint& g : grid_) {
        if (Holds(g, old_slot, old_size)) {
          return false;
        }
      }
    }
    // Touch: the object becomes the newest entry, at its new size, before
    // any grid point evicts — LruCache moves a refreshed entry to the front
    // first, and an admitted one is never its own victim.
    const uint64_t new_slot = slot_size_.size();
    if (live) {
      Kill(old_slot);
      slab_.node(node).size = size;
      slab_.node(node).stamp = new_slot;
    } else {
      node = slab_.Allocate(id, size, new_slot);
      index_.EmplacePrehashed(hash, node, &slab_);
    }
    slot_size_.push_back(size);
    slot_node_.push_back(node);
    const uint64_t top = new_slot + 1;
    if (op == Op::kGet) {
      for (size_t i = 0; i < grid_.size(); ++i) {
        GridPoint& g = grid_[i];
        if (Holds(g, old_slot, old_size)) {
          continue;  // hit
        }
        ++misses[i];
        missed_bytes[i] += size;
        if (size <= g.cap) {  // admit on miss
          EvictToFit(g, size);
          g.used += size;
        }
      }
    } else {
      for (GridPoint& g : grid_) {
        if (Holds(g, old_slot, old_size)) {
          g.used = g.used - old_size + size;
          if (size > g.cap) {  // evicts everything, the object itself last
            g.used = 0;
            g.floor = top;
          } else if (g.used > g.cap) {
            EvictToFit(g, 0);
          }
        } else if (size <= g.cap) {
          EvictToFit(g, size);
          g.used += size;
        }
      }
    }
    if (slot_size_.size() % kCompactCheckEvery == 0) {
      MaybeCompact();
    }
    return true;
  }

  void Kill(uint64_t slot) {
    slot_size_[slot] = kDeadSize;
    slot_node_[slot] = kNilNode;
  }

  // Compacts once dead slots outnumber live ones, or the slots below every
  // floor (which no grid point holds) outnumber the rest; a scan, which
  // kills no slot, needs the second test to stay bounded. Either way at
  // least half the timeline goes, so compaction costs O(1) per touch
  // amortized.
  void MaybeCompact() {
    const uint64_t slots = slot_size_.size();
    uint64_t reclaimable = slots - index_.size();
    uint64_t lowest_floor = slots;
    for (const GridPoint& g : grid_) {
      lowest_floor = std::min(lowest_floor, g.floor);
    }
    reclaimable = std::max(reclaimable, lowest_floor);
    if (reclaimable > slots - reclaimable) {
      Compact();
    }
  }

  // Squeezes out dead slots and drops entries no grid point holds, mapping
  // each floor to the position of the first kept slot at or above it.
  void Compact() {
    ++compactions_;
    const size_t points = grid_.size();
    // Entry (slot, size) is held somewhere iff slot >= floor_i for some i
    // whose cap fits size; caps ascend, so that is the minimum floor over
    // the grid points from the first fitting one up.
    std::vector<uint64_t> suffix_floor(points);
    uint64_t min_floor = kDeadSize;
    for (size_t i = points; i-- > 0;) {
      min_floor = std::min(min_floor, grid_[i].floor);
      suffix_floor[i] = min_floor;
    }
    std::vector<size_t> by_floor(points);
    std::iota(by_floor.begin(), by_floor.end(), size_t{0});
    std::sort(by_floor.begin(), by_floor.end(),
              [&](size_t a, size_t b) { return grid_[a].floor < grid_[b].floor; });
    size_t next_floor = 0;
    uint64_t kept = 0;
    for (uint64_t slot = 0; slot < slot_size_.size(); ++slot) {
      while (next_floor < points && grid_[by_floor[next_floor]].floor <= slot) {
        grid_[by_floor[next_floor++]].floor = kept;
      }
      const uint32_t node = slot_node_[slot];
      if (node == kNilNode) {
        continue;
      }
      const uint64_t size = slot_size_[slot];
      const size_t first_fit = static_cast<size_t>(
          std::partition_point(grid_.begin(), grid_.end(),
                               [&](const GridPoint& g) { return g.cap < size; }) -
          grid_.begin());
      if (first_fit == points || slot < suffix_floor[first_fit]) {
        index_.EraseCell(slab_.node(node).cell, &slab_);
        slab_.Free(node);
        continue;
      }
      slot_size_[kept] = size;
      slot_node_[kept] = node;
      slab_.node(node).stamp = kept;
      ++kept;
    }
    while (next_floor < points) {
      grid_[by_floor[next_floor++]].floor = kept;
    }
    slot_size_.resize(kept);
    slot_node_.resize(kept);
  }

  // Touches between compaction checks: the check is a pass over the grid,
  // and a tiny working set should not pay a floor sort every few requests.
  static constexpr size_t kCompactCheckEvery = 1024;

  std::vector<GridPoint> grid_;
  FlatIndex index_;  // id -> slab node; node.size and node.stamp = slot
  NodeSlab slab_;
  std::vector<uint64_t> slot_size_;
  std::vector<uint32_t> slot_node_;
  uint64_t compactions_ = 0;
};

MrcBank::MrcBank(std::vector<uint64_t> grid, double ratio, uint64_t salt,
                 EvictionPolicyKind policy)
    : grid_(std::move(grid)),
      pipeline_(
          ratio, salt,
          // The timeline is one task; the per-grid caches one per grid point.
          [this](const ReplayBatch&) { return timeline_ != nullptr ? size_t{1} : grid_.size(); },
          [this](const ReplayBatch& batch, size_t i) {
            if (timeline_ != nullptr) {
              ReplayTimeline(batch);
            } else {
              ReplayGridPoint(batch, i);
            }
          }) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(std::is_sorted(grid_.begin(), grid_.end()));
  std::vector<uint64_t> caps;
  caps.reserve(grid_.size());
  for (uint64_t capacity : grid_) {
    caps.push_back(std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio)));
  }
  if (policy == EvictionPolicyKind::kLru) {
    timeline_ = std::make_unique<LruTimeline>(caps);
  } else {
    caches_.reserve(caps.size());
    for (const uint64_t mini : caps) {
      caches_.push_back(MakeEvictionCache(policy, mini));
    }
  }
  window_misses_.assign(grid_.size(), 0);
  window_missed_bytes_.assign(grid_.size(), 0);
}

MrcBank::~MrcBank() = default;

void MrcBank::ReplayGridPoint(const ReplayBatch& batch, size_t i) {
  // The policy's prehashed SoA kernel (one virtual call per batch, then a
  // devirtualized loop). Stats accumulate locally and write back once per
  // batch: grid points run on pool threads, and neighboring window_misses_
  // slots share cache lines.
  const EvictionCache::MiniSimStats stats = caches_[i]->ReplayMiniSim(batch);
  window_misses_[i] += stats.misses;
  window_missed_bytes_[i] += stats.missed_bytes;
}

void MrcBank::ReplayTimeline(const ReplayBatch& batch) {
  const size_t stop =
      timeline_->Replay(batch, window_misses_.data(), window_missed_bytes_.data());
  if (stop == batch.size()) {
    return;
  }
  // Size-mismatch fallback: per-grid LRU caches from here on. The rest of
  // this batch replays sequentially (this may already run on a pool task);
  // later batches fan out as for the other policies.
  caches_ = timeline_->ToCaches(pipeline_.sampler());
  timeline_.reset();
  ReplayBatch rest;
  rest.AppendRange(batch, stop, batch.size());
  for (size_t i = 0; i < grid_.size(); ++i) {
    ReplayGridPoint(rest, i);
  }
}

size_t MrcBank::allocated_nodes() const {
  if (timeline_ != nullptr) {
    return timeline_->allocated_nodes();
  }
  size_t total = 0;
  for (const auto& cache : caches_) {
    total += cache->allocated_nodes();
  }
  return total;
}

uint64_t MrcBank::timeline_compactions() const {
  return timeline_ != nullptr ? timeline_->compactions() : 0;
}

WindowCurves MrcBank::EndWindow() {
  // The window counters and the realized admission rate come from the
  // pipeline, after it has replayed (and joined) everything buffered. One
  // rate normalizes both curves: the sampler admits ~ratio of objects, but
  // on small windows the realized fraction drifts, and normalizing the MRC
  // by the realized sampled-GET count while scaling the BMC by the nominal
  // 1/ratio would bias the egress estimate in ExpectedCostCurve.
  const SampledBatchPipeline::Window window = pipeline_.EndWindow();
  WindowCurves out;
  std::vector<double> xs;
  std::vector<double> mrc_ys;
  std::vector<double> bmc_ys;
  xs.reserve(grid_.size());
  mrc_ys.reserve(grid_.size());
  bmc_ys.reserve(grid_.size());
  const double sampled_gets = static_cast<double>(window.sampled_gets);
  for (size_t i = 0; i < grid_.size(); ++i) {
    xs.push_back(static_cast<double>(grid_[i]));
    const double mr =
        sampled_gets <= 0.0 ? 0.0 : static_cast<double>(window_misses_[i]) / sampled_gets;
    mrc_ys.push_back(std::min(1.0, mr));
    bmc_ys.push_back(static_cast<double>(window_missed_bytes_[i]) / window.realized_rate);
  }
  out.mrc = Curve(xs, std::move(mrc_ys));
  out.bmc = Curve(std::move(xs), std::move(bmc_ys));
  out.sampled_gets = window.sampled_gets;
  out.window_requests = window.requests;
  std::fill(window_misses_.begin(), window_misses_.end(), 0);
  std::fill(window_missed_bytes_.begin(), window_missed_bytes_.end(), 0);
  return out;
}

}  // namespace macaron
