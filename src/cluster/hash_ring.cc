#include "src/cluster/hash_ring.h"

#include <algorithm>
#include <bit>

namespace macaron {

void HashRing::AddNodes(std::span<const uint32_t> node_ids) {
  if (node_ids.empty()) {
    return;
  }
  const size_t old_size = ring_.size();
  ring_.reserve(old_size + node_ids.size() * static_cast<size_t>(virtual_replicas_));
  for (const uint32_t node_id : node_ids) {
    for (int r = 0; r < virtual_replicas_; ++r) {
      ring_.emplace_back(Mix64(Mix64(node_id) + static_cast<uint64_t>(r)), node_id);
    }
  }
  // Lexicographic (position, node) order, the order one sorted insert per
  // entry would give. Position collisions between different nodes keep BOTH
  // entries: a position-keyed ring would lose the earlier node's replica,
  // and a later removal of either node would take whichever entry held the
  // position, leaving the ring permanently short one replica of the
  // survivor. Duplicate positions are ordered by node id, so routing (first
  // entry at or after the hash) stays deterministic.
  const auto added = ring_.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::sort(added, ring_.end());
  std::inplace_merge(ring_.begin(), added, ring_.end());
  num_nodes_ += node_ids.size();
  RebuildBuckets();
}

void HashRing::RemoveNodes(std::span<const uint32_t> node_ids) {
  if (node_ids.empty()) {
    return;
  }
  std::vector<uint32_t> gone(node_ids.begin(), node_ids.end());
  std::sort(gone.begin(), gone.end());
  const size_t erased = std::erase_if(ring_, [&](const std::pair<uint64_t, uint32_t>& e) {
    return std::binary_search(gone.begin(), gone.end(), e.second);
  });
  // Every named node held exactly its own replicas.
  MACARON_CHECK(erased == node_ids.size() * static_cast<size_t>(virtual_replicas_));
  MACARON_CHECK(num_nodes_ >= node_ids.size());
  num_nodes_ -= node_ids.size();
  RebuildBuckets();
}

double HashRing::HashShare(uint32_t node_id) const {
  if (ring_.size() == 1) {
    return ring_.front().second == node_id ? 1.0 : 0.0;
  }
  // Entry i owns the hashes in (position i - 1, position i]; entry 0's arc
  // wraps past the last entry, which the unsigned difference gives. A
  // duplicate position's later entry owns nothing, as routing has it.
  double owned = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].second == node_id) {
      const uint64_t prev = ring_[i == 0 ? ring_.size() - 1 : i - 1].first;
      owned += static_cast<double>(ring_[i].first - prev);
    }
  }
  return owned / 0x1p64;
}

void HashRing::RebuildBuckets() {
  first_.clear();
  if (ring_.empty()) {
    return;
  }
  MACARON_CHECK(ring_.size() < (uint64_t{1} << 32));
  // 2^k in (n, 2n] buckets; k >= 1 because n >= 1.
  const int k = static_cast<int>(std::bit_width(ring_.size()));
  shift_ = 64 - k;
  first_.resize(size_t{1} << k);
  size_t i = 0;
  for (size_t b = 0; b < first_.size(); ++b) {
    const uint64_t start = static_cast<uint64_t>(b) << shift_;
    while (i < ring_.size() && ring_[i].first < start) {
      ++i;
    }
    first_[b] = static_cast<uint32_t>(i);
  }
}

}  // namespace macaron
