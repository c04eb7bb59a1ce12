#include "src/minisim/alc_bank.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"

namespace macaron {

namespace {
constexpr size_t kPrefetchAhead = 8;  // requests prefetched ahead in the replay loop

// Level indices into a SlotRow's per-level fields.
constexpr int kCluster = 0;
constexpr int kOsc = 1;

// Resident size of a slot no level holds; request sizes must stay below it.
constexpr uint64_t kAbsent = ~0ull;
// Completion of a slot with no fetch in flight; never later than a request.
constexpr SimTime kNoFetch = std::numeric_limits<SimTime>::min();
// SlabNode::tag of a slot the index maps an id to (0 once freed).
constexpr uint32_t kLiveSlot = 1;

// Slots per page of the row table. A page holds kPageSlots x grid rows:
// slot s's rows, one per grid point, start at row (s % kPageSlots) * grid
// of page s / kPageSlots.
constexpr uint32_t kPageShift = 8;
constexpr uint32_t kPageSlots = 1u << kPageShift;
}  // namespace

// One slot's state at one grid point.
struct SlotRow {
  uint64_t size[2] = {kAbsent, kAbsent};  // resident bytes per level
  SimTime completion = kNoFetch;          // in-flight remote fetch
  uint32_t prev[2] = {kNilNode, kNilNode};
  uint32_t next[2] = {kNilNode, kNilNode};
};
static_assert(sizeof(SlotRow) == 40, "SlotRow should pack into 40 bytes");
constexpr SlotRow kFreeRow{};

namespace {

SlotRow* SlotRows(const std::unique_ptr<SlotRow[]>* pages, uint32_t stride, uint32_t s) {
  return pages[s >> kPageShift].get() + (s & (kPageSlots - 1)) * stride;
}

// One grid point's rows, indexed by slot. The helpers below take it by
// value and are forced inline: for this 16-byte handle GCC 12 otherwise
// calls Unlink, EvictToFit and Put out of line from the replay loop.
struct GridRows {
  const std::unique_ptr<SlotRow[]>* pages;
  uint32_t stride;  // grid points
  uint32_t point;
  SlotRow& operator[](uint32_t s) const { return SlotRows(pages, stride, s)[point]; }
};

// One level's LRU list over a grid point's rows (head = MRU), with the
// byte accounting of LruCache.
struct LevelList {
  uint64_t capacity = 0;
  uint64_t used = 0;
  uint32_t head = kNilNode;
  uint32_t tail = kNilNode;
};

template <int L>
[[gnu::always_inline]] inline void PushFront(GridRows rows, LevelList& list, uint32_t s) {
  rows[s].prev[L] = kNilNode;
  rows[s].next[L] = list.head;
  if (list.head != kNilNode) {
    rows[list.head].prev[L] = s;
  } else {
    list.tail = s;
  }
  list.head = s;
}

template <int L>
[[gnu::always_inline]] inline void Unlink(GridRows rows, LevelList& list, uint32_t s) {
  const uint32_t prev = rows[s].prev[L];
  const uint32_t next = rows[s].next[L];
  if (prev != kNilNode) {
    rows[prev].next[L] = next;
  } else {
    list.head = next;
  }
  if (next != kNilNode) {
    rows[next].prev[L] = prev;
  } else {
    list.tail = prev;
  }
}

template <int L>
[[gnu::always_inline]] inline void MoveToFront(GridRows rows, LevelList& list, uint32_t s) {
  if (list.head != s) {
    Unlink<L>(rows, list, s);
    PushFront<L>(rows, list, s);
  }
}

// LruCache::EvictToFit: drops LRU entries until `incoming` more bytes fit
// or the level is empty.
template <int L>
[[gnu::always_inline]] inline void EvictToFit(GridRows rows, LevelList& list, uint64_t incoming) {
  while (list.used + incoming > list.capacity && list.tail != kNilNode) {
    const uint32_t victim = list.tail;
    list.used -= rows[victim].size[L];
    rows[victim].size[L] = kAbsent;
    Unlink<L>(rows, list, victim);
  }
}

// LruCache::PutPrehashed: a resident copy is resized and moved to MRU,
// evicting down (the object itself last) if it no longer fits; an absent
// object is admitted only if it fits the capacity.
template <int L>
[[gnu::always_inline]] inline void Put(GridRows rows, LevelList& list, uint32_t s,
                                       uint64_t size) {
  SlotRow& row = rows[s];
  if (row.size[L] != kAbsent) {
    list.used = list.used - row.size[L] + size;
    row.size[L] = size;
    MoveToFront<L>(rows, list, s);
    if (list.used > list.capacity) {
      EvictToFit<L>(rows, list, 0);
    }
    return;
  }
  if (size > list.capacity) {
    return;
  }
  EvictToFit<L>(rows, list, size);
  PushFront<L>(rows, list, s);
  row.size[L] = size;
  list.used += size;
}

template <int L>
[[gnu::always_inline]] inline void Erase(GridRows rows, LevelList& list, uint32_t s) {
  if (rows[s].size[L] != kAbsent) {
    list.used -= rows[s].size[L];
    rows[s].size[L] = kAbsent;
    Unlink<L>(rows, list, s);
  }
}

uint64_t MiniCapacity(uint64_t capacity, double ratio) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(capacity) * ratio));
}

}  // namespace

// Its own cache lines: replay tasks over neighbouring grid ranges never
// write a shared line.
struct alignas(64) AlcBank::GridPoint {
  LevelList level[2];  // kCluster, kOsc
  double latency_sum_ms = 0.0;
  AlcLevelCounts counts;
};

AlcBank::AlcBank(std::vector<uint64_t> cluster_grid, uint64_t osc_capacity, double ratio,
                 uint64_t salt, const LatencySampler* latency, uint64_t seed)
    : grid_(std::move(cluster_grid)),
      latency_(latency),
      rng_(seed),
      pipeline_(
          ratio, salt, [this](const ReplayBatch& batch) { return PrepareBatch(batch); },
          [this](const ReplayBatch& batch, size_t t) { ReplayGridRange(batch, t); }) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(latency_ != nullptr);
  const uint64_t mini_osc = MiniCapacity(osc_capacity, ratio);
  points_.resize(grid_.size());
  for (size_t i = 0; i < grid_.size(); ++i) {
    points_[i].level[kCluster].capacity = MiniCapacity(grid_[i], ratio);
    points_[i].level[kOsc].capacity = mini_osc;
  }
}

AlcBank::~AlcBank() = default;

void AlcBank::SetExecution(ThreadPool* pool, bool async) {
  pipeline_.SetExecution(pool, async);
  workers_ = pool == nullptr ? 1 : static_cast<size_t>(std::max(pool->num_workers(), 1));
}

void AlcBank::SetOscCapacity(uint64_t osc_capacity) {
  // Resizing applies from this point in the stream: replay what came before
  // (and wait for it — the replay reads the OSC levels).
  pipeline_.Drain();
  const uint64_t mini_osc = MiniCapacity(osc_capacity, pipeline_.ratio());
  const uint32_t stride = static_cast<uint32_t>(grid_.size());
  for (uint32_t i = 0; i < stride; ++i) {
    points_[i].level[kOsc].capacity = mini_osc;
    EvictToFit<kOsc>(GridRows{pages_.data(), stride, i}, points_[i].level[kOsc], 0);
  }
}

void AlcBank::ReplayGridRange(const ReplayBatch& batch, size_t t) {
  // Task t of tasks_ replays grid points [lo, hi) request by request, over
  // each request's contiguous block of rows.
  const uint32_t stride = static_cast<uint32_t>(grid_.size());
  const uint32_t lo = static_cast<uint32_t>(t * grid_.size() / tasks_);
  const uint32_t hi = static_cast<uint32_t>((t + 1) * grid_.size() / tasks_);
  const std::unique_ptr<SlotRow[]>* pages = pages_.data();
  const size_t n = batch.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      __builtin_prefetch(SlotRows(pages, stride, slots_[k + kPrefetchAhead]) + lo);
    }
    const uint32_t s = slots_[k];
    const uint64_t size = batch.sizes[k];
    const SimTime time = batch.times[k];
    const Op op = batch.ops[k];
    for (uint32_t i = lo; i < hi; ++i) {
      const GridRows rows{pages, stride, i};
      SlotRow& row = rows[s];
      LevelList& cluster = points_[i].level[kCluster];
      LevelList& osc = points_[i].level[kOsc];
      AlcLevelCounts& counts = points_[i].counts;
      double& latency_sum_ms = points_[i].latency_sum_ms;
      switch (op) {
        case Op::kGet: {
          if (row.completion > time) {
            // The object was admitted at request time but its fetch is still
            // in flight: the duplicate access waits for that completion (the
            // false-positive-hit correction of Fig 5b).
            latency_sum_ms += static_cast<double>(row.completion - time);
            ++counts.delayed_hits;
            break;
          }
          row.completion = kNoFetch;  // an expired fetch is cleared
          if (row.size[kCluster] != kAbsent) {
            MoveToFront<kCluster>(rows, cluster, s);
            latency_sum_ms += lat_cluster_[k];
            ++counts.cluster_hits;
            break;
          }
          if (row.size[kOsc] != kAbsent) {
            MoveToFront<kOsc>(rows, osc, s);
            latency_sum_ms += lat_osc_[k];
            ++counts.osc_hits;
            Put<kCluster>(rows, cluster, s, size);  // promote
            break;
          }
          latency_sum_ms += lat_remote_[k];
          ++counts.remote_misses;
          row.completion = time + static_cast<SimTime>(lat_remote_[k]);
          Put<kOsc>(rows, osc, s, size);
          Put<kCluster>(rows, cluster, s, size);
          break;
        }
        case Op::kPut:
          Put<kOsc>(rows, osc, s, size);
          Put<kCluster>(rows, cluster, s, size);
          break;
        case Op::kDelete:
          Erase<kOsc>(rows, osc, s);
          Erase<kCluster>(rows, cluster, s);
          row.completion = kNoFetch;
          break;
      }
    }
  }
}

void AlcBank::MaybeReclaimSlots() {
  if (slab_.live_nodes() < std::max(2 * live_after_scan_, SampledBatchPipeline::kBatchCapacity)) {
    return;
  }
  // A slot is held while some grid point keeps it resident at either
  // level or has a fetch for it completing after the newest replayed time
  // (which no later request predates). A freed slot's rows are reset in
  // place.
  const uint32_t stride = static_cast<uint32_t>(grid_.size());
  const uint32_t slots = static_cast<uint32_t>(slab_.allocated_nodes());
  for (uint32_t s = 0; s < slots; ++s) {
    SlabNode& node = slab_.node(s);
    if (node.tag != kLiveSlot) {
      continue;
    }
    SlotRow* rows = SlotRows(pages_.data(), stride, s);
    bool held = false;
    for (uint32_t i = 0; i < stride; ++i) {
      held |= (rows[i].size[kCluster] != kAbsent) | (rows[i].size[kOsc] != kAbsent) |
              (rows[i].completion > newest_time_);
    }
    if (!held) {
      index_.EraseCell(node.cell, &slab_);
      node.tag = 0;
      slab_.Free(s);
      std::fill_n(rows, stride, kFreeRow);
    }
  }
  live_after_scan_ = slab_.live_nodes();
  scan_time_ = newest_time_;
}

size_t AlcBank::PrepareBatch(const ReplayBatch& batch) {
  MaybeReclaimSlots();
  // One pass in stream order resolves each row's slot and draws its
  // latencies: admitted GETs draw one latency per source, everything else
  // draws none and records zeros.
  const size_t n = batch.size();
  const uint32_t stride = static_cast<uint32_t>(grid_.size());
  slots_.resize(n);
  lat_cluster_.resize(n);
  lat_osc_.resize(n);
  lat_remote_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      index_.PrefetchPrehashed(batch.hashes[k + kPrefetchAhead]);
    }
    const uint64_t size = batch.sizes[k];
    MACARON_CHECK(size != kAbsent);
    MACARON_DCHECK(batch.times[k] >= scan_time_);  // reclamation's precondition
    newest_time_ = std::max(newest_time_, batch.times[k]);
    const ObjectId id = batch.ids[k];
    const uint64_t hash = batch.hashes[k];
    uint32_t s = index_.FindPrehashed(id, hash, slab_);
    if (s == FlatIndex::kEmpty) {
      s = slab_.Allocate(id, 0, kLiveSlot);
      index_.EmplacePrehashed(hash, s, &slab_);
      // A reused slot's rows were reset when it was freed (its first row
      // stands for them).
      MACARON_CHECK(s >= pages_.size() * kPageSlots ||
                    std::memcmp(SlotRows(pages_.data(), stride, s), &kFreeRow,
                                sizeof(SlotRow)) == 0);
    }
    slots_[k] = s;
    if (batch.ops[k] == Op::kGet) {
      lat_cluster_[k] = latency_->SampleMs(DataSource::kCacheCluster, size, rng_);
      lat_osc_[k] = latency_->SampleMs(DataSource::kOsc, size, rng_);
      lat_remote_[k] = latency_->SampleMs(DataSource::kRemoteLake, size, rng_);
    } else {
      lat_cluster_[k] = lat_osc_[k] = lat_remote_[k] = 0.0;
    }
  }
  // New slots get their rows from fresh pages; a page never moves.
  while (pages_.size() * kPageSlots < slab_.allocated_nodes()) {
    pages_.push_back(std::make_unique<SlotRow[]>(kPageSlots * stride));
  }
  tasks_ = std::min(workers_, grid_.size());
  return tasks_;
}

AlcWindow AlcBank::EndWindow() {
  // Replays and joins everything buffered: the replay tasks write the
  // grid-point sums and counters read below.
  const SampledBatchPipeline::Window window = pipeline_.EndWindow();
  AlcWindow out;
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(grid_.size());
  ys.reserve(grid_.size());
  out.level_counts.reserve(grid_.size());
  for (size_t i = 0; i < grid_.size(); ++i) {
    GridPoint& g = points_[i];
    const uint64_t n = g.counts.total();
    xs.push_back(static_cast<double>(grid_[i]));
    ys.push_back(n == 0 ? 0.0 : g.latency_sum_ms / static_cast<double>(n));
    out.level_counts.push_back(g.counts);
    g.latency_sum_ms = 0.0;
    g.counts = AlcLevelCounts{};
  }
  out.alc = Curve(std::move(xs), std::move(ys));
  out.sampled_gets = window.sampled_gets;
  return out;
}

}  // namespace macaron
