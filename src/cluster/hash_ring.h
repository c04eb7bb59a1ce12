// Consistent-hash ring used by Macaron clients to route requests to cache
// nodes (§4.2). Virtual replicas smooth the load distribution; scaling the
// cluster moves only the minimal share of the key space.
//
// The ring is a sorted flat vector of (position, node) entries plus a bucket
// table over the top k bits of the 64-bit hash space: first_[b] is the index
// of the first entry at or past b·2^(64−k), with 2^k between one and two
// times the entry count. Route reads one table slot and steps over the
// entries that sit in the key's bucket before it (under one on average), so
// it costs the same on the 256-entry shard ring and the 16,384-entry ring of
// a 256-node cluster, where a binary search takes 8 and 14 dependent,
// hard-to-predict steps. A route is on the per-request path of the shard
// partition and of every cluster access. Membership changes come in batches
// (a cluster resize, a shard router's construction): AddNodes merges all new
// entries with one sort and RemoveNodes drops them in one pass, and each
// rebuilds the table once.

#ifndef MACARON_SRC_CLUSTER_HASH_RING_H_
#define MACARON_SRC_CLUSTER_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/trace/request.h"

namespace macaron {

class HashRing {
 public:
  explicit HashRing(int virtual_replicas = 64) : virtual_replicas_(virtual_replicas) {}

  // Batch membership changes; the single-node forms are their one-id cases.
  // RemoveNodes undoes AddNodes exactly; every id it names must be present.
  void AddNodes(std::span<const uint32_t> node_ids);
  void RemoveNodes(std::span<const uint32_t> node_ids);
  void AddNode(uint32_t node_id) { AddNodes({&node_id, 1}); }
  void RemoveNode(uint32_t node_id) { RemoveNodes({&node_id, 1}); }

  // Returns the node owning `id`. Ring must be non-empty.
  uint32_t Route(ObjectId id) const { return RouteHashed(Mix64(id)); }

  // Same, for a caller that already holds h = Mix64(id) (hash-once request
  // path; see cache_cluster.h). The owner is the first entry whose position
  // is at least h, wrapping to the front past the last entry.
  uint32_t RouteHashed(uint64_t h) const {
    MACARON_CHECK(!ring_.empty());
    size_t i = first_[h >> shift_];
    while (i < ring_.size() && ring_[i].first < h) {
      ++i;
    }
    return i == ring_.size() ? ring_.front().second : ring_[i].second;
  }

  bool empty() const { return ring_.empty(); }
  size_t num_nodes() const { return num_nodes_; }

  // Fraction of the 64-bit hash space that routes to `node_id` (0 for a
  // non-member): the share of uniformly hashed ids it can expect. Virtual
  // replicas leave members' shares uneven. O(ring entries).
  double HashShare(uint32_t node_id) const;

 private:
  void RebuildBuckets();

  int virtual_replicas_;
  size_t num_nodes_ = 0;
  // (position, node) pairs in lexicographic order. Positions are NOT
  // assumed unique: two nodes whose virtual replicas collide both keep
  // their entries (ordered by node id), so AddNode/RemoveNode are exact
  // inverses and a resize never silently drops a surviving node's replica.
  // Routing takes the first entry at or after the key hash.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
  // first_[b]: index of the first entry with position >= b << shift_, or
  // ring_.size() if none. At least two buckets, so shift_ <= 63.
  std::vector<uint32_t> first_;
  int shift_ = 63;
};

}  // namespace macaron

#endif  // MACARON_SRC_CLUSTER_HASH_RING_H_
