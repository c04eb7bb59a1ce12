#include "src/cluster/cache_cluster.h"

#include <span>
#include <type_traits>

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace macaron {

// Growing nodes_ relocates the live nodes; they must move, not copy.
static_assert(std::is_nothrow_move_constructible_v<LruCache>);

CacheCluster::CacheCluster(uint64_t node_capacity_bytes) : node_capacity_(node_capacity_bytes) {
  MACARON_CHECK(node_capacity_bytes > 0);
}

std::vector<uint32_t> CacheCluster::Resize(size_t nodes) {
  std::vector<uint32_t> added;
  size_t removed = 0;
  if (nodes > nodes_.size()) {
    nodes_.reserve(nodes);
    while (nodes_.size() < nodes) {
      const uint32_t id = next_node_id_++;
      slot_of_.resize(static_cast<size_t>(id) + 1);
      slot_of_[id] = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back(node_capacity_);
      ids_.push_back(id);
      added.push_back(id);
    }
    ring_.AddNodes(added);
  } else if (nodes < nodes_.size()) {
    // Terminate the most recently launched nodes (simple LIFO policy).
    removed = nodes_.size() - nodes;
    ring_.RemoveNodes(std::span<const uint32_t>(ids_).subspan(nodes));
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(nodes), nodes_.end());
    ids_.resize(nodes);
  }
  if (m_resizes_ != nullptr && (!added.empty() || removed > 0)) {
    m_resizes_->Inc();
    m_nodes_added_->Inc(added.size());
    m_nodes_removed_->Inc(removed);
  }
  return added;
}

bool CacheCluster::GetHashed(ObjectId id, uint64_t h) {
  if (ring_.empty()) {
    return false;
  }
  const bool hit = NodeFor(h).GetPrehashed(id, h);
  if (m_lookups_ != nullptr) {
    m_lookups_->Inc();
    if (hit) {
      m_hits_->Inc();
    }
  }
  return hit;
}

void CacheCluster::PutHashed(ObjectId id, uint64_t h, uint64_t size) {
  if (ring_.empty()) {
    return;
  }
  if (m_puts_ != nullptr) {
    m_puts_->Inc();
  }
  NodeFor(h).PutPrehashed(id, h, size);
}

void CacheCluster::DeleteHashed(ObjectId id, uint64_t h) {
  if (ring_.empty()) {
    return;
  }
  NodeFor(h).ErasePrehashed(id, h);
}

uint64_t CacheCluster::Prime(const ObjectStorageCache& osc,
                             const std::vector<uint32_t>& new_nodes) {
  if (new_nodes.empty() || ring_.empty()) {
    return 0;
  }
  // Per-slot priming state of the live nodes. A node is full for priming
  // purposes once adding more would evict.
  enum : uint8_t { kSkip, kTarget, kFull };
  std::vector<uint8_t> state(nodes_.size(), kSkip);
  size_t targets = 0;
  for (const uint32_t id : new_nodes) {
    MACARON_CHECK(id < slot_of_.size() && slot_of_[id] < ids_.size() && ids_[slot_of_[id]] == id);
    if (state[slot_of_[id]] == kSkip) {
      state[slot_of_[id]] = kTarget;
      ++targets;
    }
  }
  size_t full = 0;
  uint64_t primed = 0;
  osc.ForEachMruToLru([&](ObjectId id, uint64_t size) {
    const uint64_t h = Mix64(id);  // one hash routes and indexes
    const uint32_t slot = slot_of_[ring_.RouteHashed(h)];
    if (state[slot] != kTarget) {
      return true;
    }
    LruCache& node = nodes_[slot];
    if (node.used_bytes() + size > node.capacity()) {
      state[slot] = kFull;
      // Stop once every target node has filled.
      return ++full < targets;
    }
    if (!node.ContainsPrehashed(id, h)) {
      node.PutPrehashed(id, h, size);
      ++primed;
    }
    return true;
  });
  if (m_primed_objects_ != nullptr) {
    m_primed_objects_->Inc(primed);
  }
  return primed;
}

void CacheCluster::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_lookups_ = nullptr;
    m_hits_ = nullptr;
    m_puts_ = nullptr;
    m_resizes_ = nullptr;
    m_nodes_added_ = nullptr;
    m_nodes_removed_ = nullptr;
    m_primed_objects_ = nullptr;
    return;
  }
  m_lookups_ = registry->counter("cluster", "lookups");
  m_hits_ = registry->counter("cluster", "hits");
  m_puts_ = registry->counter("cluster", "puts");
  m_resizes_ = registry->counter("cluster", "resizes");
  m_nodes_added_ = registry->counter("cluster", "nodes_added");
  m_nodes_removed_ = registry->counter("cluster", "nodes_removed");
  m_primed_objects_ = registry->counter("cluster", "primed_objects");
}

uint64_t CacheCluster::used_bytes() const {
  uint64_t total = 0;
  for (const LruCache& node : nodes_) {
    total += node.used_bytes();
  }
  return total;
}

}  // namespace macaron
