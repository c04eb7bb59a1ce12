// Consistent-hash routing of requests to serving shards.
//
// The sharded engines (see DESIGN.md "Sharded serving") partition the object
// id space across N independent shards with the same HashRing the cache
// cluster uses for node routing: shard ids 0..N-1 are ring nodes (64 virtual
// replicas each, added in one batch), and ShardOf(h) reuses the prehashed
// RouteHashed path, so partitioning costs no additional hash beyond the one
// Mix64(id) the engines already compute at ingest. ShardOf runs once per
// request on the partitioning thread, ahead of every shard worker; the
// ring's bucket table makes it one table read and a step or two, whatever N
// is. An object id always maps to the same shard for the lifetime of a run
// (the shard count never changes mid-run), which is what makes per-shard
// OSC membership, in-flight coalescing, and the replicated baseline's
// first-touch set exact partitions of their unsharded equivalents.
//
// ShareOf splits an integer resource total (OSC capacity bytes, cluster
// nodes) across shards deterministically: every shard gets total/N, and the
// first total%N shards get one unit more, so shares always sum to the total.

#ifndef MACARON_SRC_SIM_SHARD_ROUTER_H_
#define MACARON_SRC_SIM_SHARD_ROUTER_H_

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/cluster/hash_ring.h"
#include "src/common/check.h"

namespace macaron {

class ShardRouter {
 public:
  explicit ShardRouter(int shards) : shards_(shards) {
    MACARON_CHECK(shards >= 1);
    if (shards_ > 1) {
      std::vector<uint32_t> ids(static_cast<size_t>(shards_));
      std::iota(ids.begin(), ids.end(), 0u);
      ring_.AddNodes(ids);
    }
  }

  int num_shards() const { return shards_; }

  // Shard owning hash h = Mix64(id). Single-shard routing short-circuits so
  // the default configuration pays no ring search per request.
  uint32_t ShardOf(uint64_t h) const {
    return shards_ <= 1 ? 0 : ring_.RouteHashed(h);
  }

 private:
  int shards_;
  HashRing ring_;
};

// Deterministic share of an integer resource for shard `shard` of `shards`.
inline uint64_t ShareOf(uint64_t total, int shards, int shard) {
  MACARON_CHECK(shards >= 1 && shard >= 0 && shard < shards);
  const uint64_t n = static_cast<uint64_t>(shards);
  const uint64_t s = static_cast<uint64_t>(shard);
  return total / n + (s < total % n ? 1 : 0);
}

}  // namespace macaron

#endif  // MACARON_SRC_SIM_SHARD_ROUTER_H_
