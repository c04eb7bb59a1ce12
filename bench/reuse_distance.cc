#include "bench/reuse_distance.h"

#include <algorithm>

#include "src/common/check.h"

namespace macaron {

void ReuseDistanceAnalyzer::ReserveObjects(size_t objects, size_t gets) {
  objects_.reserve(objects);
  if (gets > 0) {
    distances_.reserve(gets);
  }
}

void ReuseDistanceAnalyzer::FenwickAdd(size_t pos, int64_t delta) {
  for (size_t i = pos + 1; i <= tree_.size(); i += i & (~i + 1)) {
    tree_[i - 1] += delta;
  }
}

int64_t ReuseDistanceAnalyzer::FenwickPrefix(size_t pos) const {
  int64_t sum = 0;
  for (size_t i = std::min(pos + 1, tree_.size()); i > 0; i -= i & (~i + 1)) {
    sum += tree_[i - 1];
  }
  return sum;
}

uint64_t ReuseDistanceAnalyzer::Distance(ObjectId id, uint64_t size) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return kInfinite;
  }
  // Bytes of distinct objects accessed strictly after the previous access,
  // plus the object itself.
  const int64_t total = FenwickPrefix(next_slot_ == 0 ? 0 : next_slot_ - 1);
  const int64_t upto = FenwickPrefix(it->second.slot);
  const int64_t between = total - upto;
  MACARON_CHECK(between >= 0);
  return static_cast<uint64_t>(between) + size;
}

void ReuseDistanceAnalyzer::Touch(ObjectId id, uint64_t size) {
  // Grow the tree first (the rebuild reads objects_, which must still
  // describe the pre-touch state). Rebuilding from live objects keeps
  // amortized O(log n) updates.
  if (next_slot_ >= tree_.size()) {
    tree_.assign(tree_.size() * 2 + 64, 0);
    for (const auto& [obj, state] : objects_) {
      FenwickAdd(state.slot, static_cast<int64_t>(state.size));
    }
  }
  const auto it = objects_.find(id);
  if (it != objects_.end()) {
    FenwickAdd(it->second.slot, -static_cast<int64_t>(it->second.size));
    it->second = ObjectState{next_slot_, size};
  } else {
    objects_.emplace(id, ObjectState{next_slot_, size});
  }
  FenwickAdd(next_slot_, static_cast<int64_t>(size));
  ++next_slot_;
}

void ReuseDistanceAnalyzer::Remove(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return;
  }
  FenwickAdd(it->second.slot, -static_cast<int64_t>(it->second.size));
  objects_.erase(it);
}

void ReuseDistanceAnalyzer::Process(const Request& r) {
  switch (r.op) {
    case Op::kGet: {
      ++num_gets_;
      const uint64_t d = Distance(r.id, r.size);
      if (d == kInfinite) {
        ++compulsory_misses_;
      }
      distances_.emplace_back(d, r.size);
      Touch(r.id, r.size);
      break;
    }
    case Op::kPut:
      Touch(r.id, r.size);
      break;
    case Op::kDelete:
      Remove(r.id);
      break;
  }
}

ReuseDistanceAnalyzer::Curves ReuseDistanceAnalyzer::Compute(
    const std::vector<uint64_t>& capacity_grid) const {
  MACARON_CHECK(!capacity_grid.empty());
  MACARON_CHECK(std::is_sorted(capacity_grid.begin(), capacity_grid.end()));
  // Bucket each distance into the first grid capacity that would hit it.
  std::vector<uint64_t> miss_counts(capacity_grid.size() + 1, 0);
  std::vector<uint64_t> miss_bytes(capacity_grid.size() + 1, 0);
  for (const auto& [d, bytes] : distances_) {
    // Misses at every capacity < d: find first capacity >= d.
    const size_t idx =
        d == kInfinite
            ? capacity_grid.size()
            : static_cast<size_t>(std::lower_bound(capacity_grid.begin(), capacity_grid.end(),
                                                   d) -
                                  capacity_grid.begin());
    // Capacities with index < idx miss this access (idx == grid size, e.g.
    // for compulsory misses, means a miss at every capacity).
    if (idx > 0) {
      miss_counts[idx - 1] += 1;  // suffix-summed below (descending)
      miss_bytes[idx - 1] += bytes;
    }
  }
  // A miss at capacity i implies a miss at all smaller capacities: build
  // suffix sums downward.
  std::vector<double> xs;
  std::vector<double> mrc;
  std::vector<double> bmc;
  xs.reserve(capacity_grid.size());
  mrc.assign(capacity_grid.size(), 0);
  bmc.assign(capacity_grid.size(), 0);
  uint64_t count_acc = 0;
  uint64_t bytes_acc = 0;
  for (size_t i = capacity_grid.size(); i-- > 0;) {
    count_acc += miss_counts[i];
    bytes_acc += miss_bytes[i];
    mrc[i] = num_gets_ == 0 ? 0.0
                            : static_cast<double>(count_acc) / static_cast<double>(num_gets_);
    bmc[i] = static_cast<double>(bytes_acc);
  }
  for (uint64_t c : capacity_grid) {
    xs.push_back(static_cast<double>(c));
  }
  Curves out;
  out.mrc = Curve(xs, std::move(mrc));
  out.bmc = Curve(std::move(xs), std::move(bmc));
  return out;
}

}  // namespace macaron
