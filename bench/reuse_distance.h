// Exact byte-weighted reuse-distance analysis (Mattson's stack algorithm
// with a Fenwick tree, the Olken construction).
//
// For an LRU cache with a byte capacity, an access hits iff the total bytes
// of distinct objects touched since the previous access to the same object
// (inclusive of the object) fits the capacity. Tracking that "byte stack
// distance" exactly for every access yields the exact MRC/BMC in
// O(n log n) — the gold standard the miniature simulation (§5.2) is
// validated against. The paper cites this family of approaches ([126-130])
// as the alternatives to miniature simulation. Its one user is bench_sec52's
// exact-MRC cross-check; the simulator never runs it.

#ifndef MACARON_BENCH_REUSE_DISTANCE_H_
#define MACARON_BENCH_REUSE_DISTANCE_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/common/curve.h"
#include "src/trace/request.h"

namespace macaron {

class ReuseDistanceAnalyzer {
 public:
  ReuseDistanceAnalyzer() = default;

  // Pre-sizes the object tables for `objects` distinct ids and, optionally,
  // the distance log for `gets` GETs — avoids rehash/regrow churn when the
  // trace size is known up front.
  void ReserveObjects(size_t objects, size_t gets = 0);

  // Feeds one request. GETs record a stack distance; PUTs and DELETEs update
  // the stack without being counted as accesses.
  void Process(const Request& r);

  // Exact curves over `capacity_grid` (bytes, ascending):
  //   mrc: fraction of GETs whose byte distance exceeds the capacity
  //   bmc: bytes of GETs whose byte distance exceeds the capacity
  // Compulsory (first-touch) accesses miss at every capacity.
  struct Curves {
    Curve mrc;
    Curve bmc;
  };
  Curves Compute(const std::vector<uint64_t>& capacity_grid) const;

  uint64_t num_gets() const { return num_gets_; }
  uint64_t compulsory_misses() const { return compulsory_misses_; }

 private:
  static constexpr uint64_t kInfinite = std::numeric_limits<uint64_t>::max();

  // Fenwick tree over access slots; value = object size at that slot.
  void FenwickAdd(size_t pos, int64_t delta);
  int64_t FenwickPrefix(size_t pos) const;  // sum of [0, pos]

  uint64_t Distance(ObjectId id, uint64_t size);
  void Touch(ObjectId id, uint64_t size);
  void Remove(ObjectId id);

  // Per-object stack state: the slot of the most recent access and the size
  // counted at that slot. One table, one lookup per touch (the previous
  // last_slot_/sizes_ pair cost two probes per access and drifted apart in
  // cache).
  struct ObjectState {
    size_t slot;
    uint64_t size;
  };

  std::vector<int64_t> tree_;
  std::unordered_map<ObjectId, ObjectState> objects_;
  size_t next_slot_ = 0;
  uint64_t num_gets_ = 0;
  uint64_t compulsory_misses_ = 0;
  // Recorded (distance, bytes) per GET; kInfinite for compulsory misses.
  std::vector<std::pair<uint64_t, uint64_t>> distances_;
};

}  // namespace macaron

#endif  // MACARON_BENCH_REUSE_DISTANCE_H_
