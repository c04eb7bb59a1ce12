// Open-addressing hash index from ObjectId to a dense uint32 slot.
//
// The cache core stores entries in a NodeSlab (see slab_lru.h) and needs a
// key -> slot lookup that does not allocate per entry the way
// std::unordered_map's node-based buckets do. FlatIndex is a two-level
// Swiss-table-style layout over one probe sequence:
//
//   * a contiguous array of 8-byte (value, hash32) cells, and
//   * a cache-line-dense tag-byte metadata array: one byte per cell holding
//     a 7-bit tag of the cell's hash (kEmptyTag marks an unoccupied cell).
//
// A cell holds no key. Every value names a row its caller already keeps
// with the key in it (a slab node's id, an in-flight row's id, a stats
// row's id), so a probe that must compare keys takes the caller's *key
// source*: any callable `ObjectId(uint32_t value)`, or the NodeSlab the
// values index (its node's id). A candidate's cached hash32 is compared
// first and the key source is read only when all 32 bits match, so a miss
// reads no row, a hit reads the one row its caller reads next anyway, and
// two keys whose hashes share the low 32 bits are still told apart by key.
// Insertion, rehash and backward-shift erase compare no keys: they read
// cells only.
//
// Probing is plain linear probing over a power-of-two table hashed with
// Mix64 — the probe *sequence* is the classic one-cell-at-a-time walk, and
// insertion always lands in the first empty slot of that walk, so the table
// layout is identical to the single-level predecessor. What the tag array
// changes is the *scan*: lookups compare 16 tags per SSE2 load
// (compare + movemask; see simd.h for the scalar fallback toggle) and only
// touch a cell when its tag matches, so a miss probe usually costs one
// metadata load from a line shared by 64 neighboring slots instead of a
// dependent chain of random cell loads, and the per-cell data-random branch
// of the scalar walk disappears. Deletion backward-shifts the following
// cluster instead of leaving tombstones; the shift walk finds the cluster
// end through the tag array the same way. Because SIMD accelerates scanning
// only, hit/miss/eviction semantics and the cell layout are bit-identical
// between the SIMD and scalar builds — the differential suite and the
// scalar CI lane (-DMACARON_SIMD=OFF) pin this. Slab slots never move while
// an entry is live, so stored values stay valid until erased.
//
// Every operation takes a caller-supplied 64-bit hash (the *Prehashed
// forms). The pipeline computes each request's hash exactly once
// (SHARDS-style: the sampler's admission hash doubles as the index hash),
// so the hot replay loops never rehash. The hash only chooses table
// positions — it never affects hit/miss/eviction semantics — so any
// fixed-per-key 64-bit value works, as long as one index instance sees the
// same hash for the same key on every call (callers without one pass
// Mix64(key)). The low 32 bits are cached in each cell (capacity is capped
// at 2^32, so the table position depends on those bits alone); the tag
// byte is the top 7 of those bits, and the backward-shift and rehash loops
// read the cached bits instead of recomputing Mix64 per scanned cell.
//
// Mutating calls optionally take the NodeSlab the values point into; when
// given, the index writes each entry's cell position back into its node
// (`SlabNode::cell`), keeping it in sync through shifts and rehashes. The
// backlink lets eviction erase the victim by cell (EraseCell) with zero
// probing: the victim node is already in hand when the recency list names
// it, so the erase needs no second hash walk. Profiling the miss path
// showed that victim-chain re-probe was the single largest cost of an
// evicting Put. An index must be used consistently: either every mutating
// call passes the same slab, or none does (e.g. the in-flight table, whose
// values are rows of its own). The slab is a parameter, not a bound
// member, so caches holding both stay trivially movable.

#ifndef MACARON_SRC_CACHE_FLAT_INDEX_H_
#define MACARON_SRC_CACHE_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cache/simd.h"
#include "src/cache/slab_lru.h"
#include "src/common/check.h"
#include "src/trace/request.h"

namespace macaron {

class FlatIndex {
 public:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  // Hard capacity cap: cells cache only the low 32 hash bits, and slot
  // values are uint32 with kEmpty reserved, so the table never grows past
  // 2^32 cells (32 GiB of cells — far beyond any simulated population).
  static constexpr uint64_t kMaxCapacity = 1ull << 32;

  FlatIndex() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Cells in the table (0 before the first insert or Reserve).
  size_t capacity() const { return cells_.size(); }

  // The power-of-two capacity Reserve(n) grows to: the smallest table
  // keeping load factor <= 1/2, overflow-guarded (n * 2 could wrap size_t
  // for huge n) and capped at kMaxCapacity. Exposed so the guard is
  // testable without allocating a table.
  static constexpr size_t CapacityFor(size_t n) {
    const uint64_t need =
        static_cast<uint64_t>(n) >= kMaxCapacity / 2 ? kMaxCapacity : static_cast<uint64_t>(n) * 2;
    uint64_t cap = kMinCapacity;
    while (cap < need) {
      cap <<= 1;
    }
    return static_cast<size_t>(cap);
  }

  // Grows the table so `n` entries fit without rehashing (best effort past
  // 2^31 entries: capacity caps at kMaxCapacity and the load factor
  // degrades instead of the size computation wrapping).
  void Reserve(size_t n, NodeSlab* slab = nullptr) {
    const size_t cap = CapacityFor(n);
    if (cap > cells_.size()) {
      Rehash(cap, slab);
    }
  }

  // Returns the value stored for `key`, or kEmpty if absent. `key_of`
  // names the key each stored value belongs to (see the header comment).
  template <typename KeyOf>
  uint32_t FindPrehashed(ObjectId key, uint64_t hash, const KeyOf& key_of) const {
    return FindImpl<kSimdDefault>(key, hash, key_of);
  }
  uint32_t FindPrehashed(ObjectId key, uint64_t hash, const NodeSlab& slab) const {
    return FindPrehashed(key, hash, SlabKeys{&slab});
  }

  // Hints the CPU to pull `hash`'s home metadata and cell lines into cache.
  // A table touch is up to two random (usually cold) loads, so callers that
  // know a key early — the mini-cache banks replay each request against
  // dozens of per-grid-point caches, and the engines' batch loops know the
  // stream ahead of time — can overlap that latency with other work.
  void PrefetchPrehashed(uint64_t hash) const {
    if (!cells_.empty()) {
      const size_t i = hash & mask_;
      __builtin_prefetch(tags_.data() + i);
      __builtin_prefetch(&cells_[i]);
    }
  }

  // Inserts `value` for the key whose hash is `hash`. That key must not be
  // present, and `value` must name it in every later probe's key source.
  void EmplacePrehashed(uint64_t hash, uint32_t value, NodeSlab* slab = nullptr) {
    EmplaceImpl<kSimdDefault>(hash, value, slab);
  }

  // Removes `key`; returns the value it held, or kEmpty if absent.
  template <typename KeyOf>
  uint32_t ErasePrehashed(ObjectId key, uint64_t hash, const KeyOf& key_of,
                          NodeSlab* slab = nullptr) {
    return EraseImpl<kSimdDefault>(key, hash, key_of, slab);
  }

  // Removes the entry at `cell` (a node's backlink; requires that every
  // mutating call on this index has passed the slab). Skips the hash walk
  // entirely — this is the eviction fast path.
  void EraseCell(uint32_t cell, NodeSlab* slab) {
    MACARON_DCHECK(slab != nullptr);
    MACARON_DCHECK(cell < cells_.size());
    MACARON_DCHECK(cells_[cell].value != kEmpty);
    EraseAt<kSimdDefault>(cell, slab);
  }

  // The low 32 hash bits cached in the occupied `cell` (a node's backlink).
  // Read it before EraseCell: the erase's backward shift may refill the
  // cell with a neighbour.
  uint32_t HashAtCell(uint32_t cell) const {
    MACARON_DCHECK(cell < cells_.size() && cells_[cell].value != kEmpty);
    return cells_[cell].hash32;
  }

  // --- Scalar reference entry points ---
  //
  // Bit-identical scalar implementations of the probing operations, always
  // compiled regardless of the SIMD toggle. The differential tests drive
  // these against the public (possibly vectorized) API on identical
  // operation streams to pin SIMD == scalar in the SIMD build; in the
  // scalar build both paths are literally the same code. Not for
  // production callers.
  template <typename KeyOf>
  uint32_t FindPrehashedScalar(ObjectId key, uint64_t hash, const KeyOf& key_of) const {
    return FindImpl<false>(key, hash, key_of);
  }
  void EmplacePrehashedScalar(uint64_t hash, uint32_t value, NodeSlab* slab = nullptr) {
    EmplaceImpl<false>(hash, value, slab);
  }
  template <typename KeyOf>
  uint32_t ErasePrehashedScalar(ObjectId key, uint64_t hash, const KeyOf& key_of,
                                NodeSlab* slab = nullptr) {
    return EraseImpl<false>(key, hash, key_of, slab);
  }
  void EraseCellScalar(uint32_t cell, NodeSlab* slab) {
    MACARON_DCHECK(slab != nullptr);
    MACARON_DCHECK(cell < cells_.size());
    MACARON_DCHECK(cells_[cell].value != kEmpty);
    EraseAt<false>(cell, slab);
  }

  // Drops every entry but keeps the table storage.
  void Clear() {
    for (Cell& c : cells_) {
      c.value = kEmpty;
    }
    for (uint8_t& t : tags_) {
      t = kEmptyTag;
    }
    size_ = 0;
  }

 private:
  struct Cell {
    uint32_t value;   // kEmpty marks an unoccupied cell
    uint32_t hash32;  // low hash bits: home slot is hash32 & mask_ and the
                      // tag byte is TagOf(hash32), so the shift and rehash
                      // loops never recompute Mix64; probes compare it
                      // before asking the key source for the key
  };
  static_assert(sizeof(Cell) == 8, "a cell is its value and hash bits, no key");

  // The key source of slab-backed indexes: a value is a slab slot, and its
  // node carries the id.
  struct SlabKeys {
    const NodeSlab* slab;
    ObjectId operator()(uint32_t value) const { return slab->node(value).id; }
  };

  // Tag-group geometry: one SSE2 register scans kGroupWidth tag bytes. The
  // tag array is sized capacity + kGroupWidth with the first
  // kGroupWidth - 1 tags mirrored past the end, so an unaligned group load
  // starting at any slot stays in bounds and sees the cyclically correct
  // tags without wrap handling in the probe loop.
  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmptyTag = 0xff;
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  static constexpr bool kSimdDefault = MACARON_SIMD_SSE2 != 0;

  // 7-bit tag from the top of the cached low hash bits (the bottom bits
  // pick the home slot, so for tables under 2^25 cells tag and position are
  // independent; above that they merely correlate, costing false-positive
  // rate, never correctness). Always < kEmptyTag.
  static constexpr uint8_t TagOf(uint32_t hash32) {
    return static_cast<uint8_t>(hash32 >> 25);
  }

  // Max load factor is 1/2: a live entry holds 18-36 bytes of cells and
  // tags (9 per cell). A lower load would shorten probe clusters, and so
  // speed up steady-state probes and backward-shift erases, but at twice
  // the cells per entry and twice the cells faulted in and moved per
  // growth; end to end, 1/2 measured better (EXPERIMENTS.md "FlatIndex
  // load factor").
  static constexpr size_t kMinCapacity = 16;

  void SetTag(size_t i, uint8_t t) {
    tags_[i] = t;
    if (i < kGroupWidth - 1) {
      tags_[mask_ + 1 + i] = t;  // keep the wrap mirror in sync
    }
  }

  template <bool kSimd, typename KeyOf>
  uint32_t FindImpl(ObjectId key, uint64_t hash, const KeyOf& key_of) const {
    if (cells_.empty()) {
      return kEmpty;
    }
    const size_t pos = FindPos<kSimd>(key, hash, key_of);
    return pos == kNpos ? kEmpty : cells_[pos].value;
  }

  // Position of `key` in the probe sequence, or kNpos if the cluster ends
  // (first empty tag) without a key match. A candidate matches when its
  // cached hash32 equals the probe's and `key_of` names `key` for its
  // value; the key source is read only after all 32 bits agree. The SIMD
  // and scalar loops scan the same linear-probe sequence; the SIMD loop
  // checks a group's tag-matching candidates in ascending (= probe) order
  // and only those strictly before the group's first empty, which is
  // exactly the set the scalar walk would reach.
  template <bool kSimd, typename KeyOf>
  size_t FindPos(ObjectId key, uint64_t hash, const KeyOf& key_of) const {
    const uint32_t h32 = static_cast<uint32_t>(hash);
    size_t i = hash & mask_;
    const uint8_t tag = TagOf(h32);
#if MACARON_SIMD_SSE2
    if constexpr (kSimd) {
      // Home-slot fast path — the scalar loop's first iteration, resolved
      // from the cell alone, so a home miss touches exactly one cell line
      // and a home hit (the common case at <=1/2 load) that line plus the
      // row its caller reads next. Group-at-a-time tag scanning only pays
      // off once a cluster is actually being walked, so the tag array is
      // consulted on fallthrough only. Erased cells keep stale hash bits
      // but get value == kEmpty, so the value is tested first.
      const Cell& c0 = cells_[i];
      if (c0.value == kEmpty) {
        return kNpos;
      }
      if (c0.hash32 == h32 && key_of(c0.value) == key) {
        return i;
      }
      const __m128i vtag = _mm_set1_epi8(static_cast<char>(tag));
      const __m128i vemp = _mm_set1_epi8(static_cast<char>(kEmptyTag));
      for (;;) {
        const __m128i group =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + i));
        uint32_t eq =
            static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vtag)));
        const uint32_t emp =
            static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vemp)));
        if (emp != 0) {
          eq &= (emp & (0u - emp)) - 1;  // keep candidates before the first empty
        }
        while (eq != 0) {
          const size_t j = (i + static_cast<size_t>(std::countr_zero(eq))) & mask_;
          if (cells_[j].hash32 == h32 && key_of(cells_[j].value) == key) {
            return j;
          }
          eq &= eq - 1;
        }
        if (emp != 0) {
          return kNpos;
        }
        i = (i + kGroupWidth) & mask_;
      }
    }
#endif
    for (;;) {
      const uint8_t t = tags_[i];
      if (t == kEmptyTag) {
        return kNpos;
      }
      if (t == tag && cells_[i].hash32 == h32 && key_of(cells_[i].value) == key) {
        return i;
      }
      i = (i + 1) & mask_;
    }
  }

  // First empty slot at or after `i` in probe order — the insert position,
  // and the cluster end for the backward-shift walk.
  template <bool kSimd>
  size_t FirstEmptyFrom(size_t i) const {
#if MACARON_SIMD_SSE2
    if constexpr (kSimd) {
      if (tags_[i] == kEmptyTag) {  // home-slot fast path, as in FindPos
        return i;
      }
      const __m128i vemp = _mm_set1_epi8(static_cast<char>(kEmptyTag));
      for (;;) {
        const __m128i group =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + i));
        const uint32_t emp =
            static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, vemp)));
        if (emp != 0) {
          return (i + static_cast<size_t>(std::countr_zero(emp))) & mask_;
        }
        i = (i + kGroupWidth) & mask_;
      }
    }
#endif
    while (tags_[i] != kEmptyTag) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  template <bool kSimd>
  void EmplaceImpl(uint64_t hash, uint32_t value, NodeSlab* slab) {
    MACARON_DCHECK(value != kEmpty);
    if ((size_ + 1) * 2 > cells_.size() && cells_.size() < kMaxCapacity) {
      Rehash(cells_.empty() ? kMinCapacity : cells_.size() * 2, slab);
    }
    // The key must not be present; a slab names it, so check it there.
    MACARON_DCHECK(slab == nullptr ||
                   FindPos<false>(slab->node(value).id, hash, SlabKeys{slab}) == kNpos);
    const size_t i = FirstEmptyFrom<kSimd>(hash & mask_);
    cells_[i] = Cell{value, static_cast<uint32_t>(hash)};
    SetTag(i, TagOf(static_cast<uint32_t>(hash)));
    if (slab != nullptr) {
      slab->node(value).cell = static_cast<uint32_t>(i);
    }
    ++size_;
  }

  template <bool kSimd, typename KeyOf>
  uint32_t EraseImpl(ObjectId key, uint64_t hash, const KeyOf& key_of, NodeSlab* slab) {
    if (cells_.empty()) {
      return kEmpty;
    }
    const size_t pos = FindPos<kSimd>(key, hash, key_of);
    if (pos == kNpos) {
      return kEmpty;
    }
    const uint32_t value = cells_[pos].value;
    EraseAt<kSimd>(pos, slab);
    return value;
  }

  void Rehash(size_t new_capacity, NodeSlab* slab) {
    // mask_ < 2^32, so positions depend only on the cached low hash bits.
    MACARON_CHECK(new_capacity <= kMaxCapacity);
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(new_capacity, Cell{kEmpty, 0});
    tags_.assign(new_capacity + kGroupWidth, kEmptyTag);
    mask_ = new_capacity - 1;
    for (const Cell& c : old) {
      if (c.value == kEmpty) {
        continue;
      }
      const size_t i = FirstEmptyFrom<kSimdDefault>(c.hash32 & mask_);
      cells_[i] = c;
      SetTag(i, TagOf(c.hash32));
      if (slab != nullptr) {
        slab->node(c.value).cell = static_cast<uint32_t>(i);
      }
    }
  }

  // Backward-shift deletion: refill the hole at `i` with any later cluster
  // member whose home slot precedes the hole (cyclically), repeating until
  // the cluster ends. The cluster end is found once through the tag array
  // (group-scanned in the SIMD build); the walk itself reads each member's
  // cached hash32, never recomputing Mix64.
  template <bool kSimd>
  void EraseAt(size_t i, NodeSlab* slab) {
    const size_t end = FirstEmptyFrom<kSimd>((i + 1) & mask_);
    for (size_t j = (i + 1) & mask_; j != end; j = (j + 1) & mask_) {
      const size_t home = cells_[j].hash32 & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        SetTag(i, tags_[j]);
        if (slab != nullptr) {
          slab->node(cells_[i].value).cell = static_cast<uint32_t>(i);
        }
        i = j;
      }
    }
    cells_[i].value = kEmpty;
    SetTag(i, kEmptyTag);
    --size_;
  }

  std::vector<Cell> cells_;
  std::vector<uint8_t> tags_;  // capacity + kGroupWidth bytes; see kGroupWidth note
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_FLAT_INDEX_H_
