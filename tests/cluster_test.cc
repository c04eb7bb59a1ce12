// Unit tests for the cache cluster: consistent hashing, scaling, priming.
// The ring's bucket-table route and the cluster's dense node table are
// pinned to test-local copies of the binary-search ring and the map-based
// cluster they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cluster/cache_cluster.h"
#include "src/cluster/hash_ring.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"

namespace macaron {
namespace {

TEST(HashRingTest, SingleNodeGetsEverything) {
  HashRing ring;
  ring.AddNode(1);
  for (ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(ring.Route(id), 1u);
  }
}

TEST(HashRingTest, RoutingIsDeterministic) {
  HashRing ring;
  ring.AddNode(1);
  ring.AddNode(2);
  ring.AddNode(3);
  for (ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(ring.Route(id), ring.Route(id));
  }
}

TEST(HashRingTest, LoadRoughlyBalanced) {
  HashRing ring(/*virtual_replicas=*/128);
  for (uint32_t n = 1; n <= 4; ++n) {
    ring.AddNode(n);
  }
  std::map<uint32_t, int> counts;
  const int total = 40000;
  for (ObjectId id = 0; id < static_cast<ObjectId>(total); ++id) {
    counts[ring.Route(id)]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [node, c] : counts) {
    EXPECT_GT(c, total / 4 / 2) << node;   // within 2x of fair share
    EXPECT_LT(c, total / 4 * 2) << node;
  }
}

TEST(HashRingTest, AddingNodeMovesMinimalShare) {
  HashRing ring(128);
  ring.AddNode(1);
  ring.AddNode(2);
  ring.AddNode(3);
  std::map<ObjectId, uint32_t> before;
  for (ObjectId id = 0; id < 10000; ++id) {
    before[id] = ring.Route(id);
  }
  ring.AddNode(4);
  int moved = 0;
  int moved_elsewhere = 0;
  for (ObjectId id = 0; id < 10000; ++id) {
    const uint32_t now = ring.Route(id);
    if (now != before[id]) {
      ++moved;
      if (now != 4) {
        ++moved_elsewhere;
      }
    }
  }
  // Roughly 1/4 of keys move, and only to the new node.
  EXPECT_NEAR(moved / 10000.0, 0.25, 0.08);
  EXPECT_EQ(moved_elsewhere, 0);
}

TEST(HashRingTest, RemovingNodeMovesOnlyItsOwnShare) {
  HashRing ring(128);
  for (uint32_t n = 1; n <= 8; ++n) {
    ring.AddNode(n);
  }
  std::map<ObjectId, uint32_t> before;
  const int total = 20000;
  for (ObjectId id = 0; id < static_cast<ObjectId>(total); ++id) {
    before[id] = ring.Route(id);
  }
  ring.RemoveNode(8);
  int moved = 0;
  for (ObjectId id = 0; id < static_cast<ObjectId>(total); ++id) {
    const uint32_t now = ring.Route(id);
    if (before[id] == 8) {
      EXPECT_NE(now, 8u);
      ++moved;
    } else {
      // Consistent hashing: keys not owned by the removed node stay put. A
      // full-remap regression (e.g. ring entries drifting on removal) fails
      // here immediately.
      EXPECT_EQ(now, before[id]) << "id " << id << " moved without cause";
    }
  }
  EXPECT_NEAR(moved / static_cast<double>(total), 1.0 / 8.0, 0.05);
}

TEST(HashRingTest, AddRemoveRoundTripRestoresRoutingExactly) {
  // AddNode and RemoveNode must be exact inverses even when virtual-replica
  // positions collide: the ring stores exact (position, node) pairs, so a
  // removal can never take out another node's colliding entry (the old
  // position-keyed map silently overwrote on collision and then removed the
  // survivor, remapping a slice of the ring forever).
  HashRing ring(128);
  for (uint32_t n = 1; n <= 16; ++n) {
    ring.AddNode(n);
  }
  std::map<ObjectId, uint32_t> before;
  const int total = 20000;
  for (ObjectId id = 0; id < static_cast<ObjectId>(total); ++id) {
    before[id] = ring.Route(id);
  }
  for (uint32_t churn = 17; churn < 22; ++churn) {
    ring.AddNode(churn);
    ring.RemoveNode(churn);
  }
  EXPECT_EQ(ring.num_nodes(), 16u);
  for (ObjectId id = 0; id < static_cast<ObjectId>(total); ++id) {
    ASSERT_EQ(ring.Route(id), before[id]) << "id " << id;
  }
}

TEST(HashRingTest, RemoveNodeRedistributes) {
  HashRing ring(128);
  ring.AddNode(1);
  ring.AddNode(2);
  ring.RemoveNode(2);
  EXPECT_EQ(ring.num_nodes(), 1u);
  for (ObjectId id = 0; id < 100; ++id) {
    EXPECT_EQ(ring.Route(id), 1u);
  }
}

// The ring before the bucket table: one sorted insert per entry and a
// std::lower_bound per route, kept verbatim as the routing reference.
class LowerBoundRing {
 public:
  explicit LowerBoundRing(int virtual_replicas = 64) : virtual_replicas_(virtual_replicas) {}

  void AddNode(uint32_t node_id) {
    for (int r = 0; r < virtual_replicas_; ++r) {
      const uint64_t pos = Mix64(Mix64(node_id) + static_cast<uint64_t>(r));
      const std::pair<uint64_t, uint32_t> entry{pos, node_id};
      ring_.insert(std::lower_bound(ring_.begin(), ring_.end(), entry), entry);
    }
    ++num_nodes_;
  }

  void RemoveNode(uint32_t node_id) {
    for (int r = 0; r < virtual_replicas_; ++r) {
      const uint64_t pos = Mix64(Mix64(node_id) + static_cast<uint64_t>(r));
      const std::pair<uint64_t, uint32_t> entry{pos, node_id};
      const auto it = std::lower_bound(ring_.begin(), ring_.end(), entry);
      ASSERT_TRUE(it != ring_.end() && *it == entry);
      ring_.erase(it);
    }
    --num_nodes_;
  }

  uint32_t RouteHashed(uint64_t h) const {
    const auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const std::pair<uint64_t, uint32_t>& e, uint64_t p) { return e.first < p; });
    return it == ring_.end() ? ring_.front().second : it->second;
  }

  bool empty() const { return ring_.empty(); }
  size_t num_nodes() const { return num_nodes_; }
  const std::vector<std::pair<uint64_t, uint32_t>>& entries() const { return ring_; }

 private:
  int virtual_replicas_;
  size_t num_nodes_ = 0;
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

// 10^5 uniform hashes, and b·2^(64−k) − 1, + 0 and + 1 for every bucket b
// of every table size 2^k with k <= 16 (each shape below has k <= 16).
const std::vector<uint64_t>& FixedProbes() {
  static const std::vector<uint64_t> probes = [] {
    std::vector<uint64_t> p = {0, std::numeric_limits<uint64_t>::max()};
    Rng rng(2024);
    for (int i = 0; i < 100000; ++i) {
      p.push_back(rng.NextU64());
    }
    for (int k = 1; k <= 16; ++k) {
      for (uint64_t b = 0; b < (uint64_t{1} << k); ++b) {
        const uint64_t start = b << (64 - k);
        p.push_back(start - 1);
        p.push_back(start);
        p.push_back(start + 1);
      }
    }
    return p;
  }();
  return probes;
}

// Routes every fixed probe and every entry position p, p − 1 and p + 1
// through both rings; reports the first disagreement.
void ExpectSameRoutes(const HashRing& ring, const LowerBoundRing& ref) {
  ASSERT_EQ(ring.empty(), ref.empty());
  ASSERT_EQ(ring.num_nodes(), ref.num_nodes());
  if (ref.empty()) {
    return;
  }
  const auto same = [&](uint64_t h) {
    const uint32_t got = ring.RouteHashed(h);
    const uint32_t want = ref.RouteHashed(h);
    if (got != want) {
      ADD_FAILURE() << "hash " << h << " routed to node " << got << ", lower_bound gives "
                    << want;
      return false;
    }
    return true;
  };
  for (const uint64_t h : FixedProbes()) {
    if (!same(h)) {
      return;
    }
  }
  for (const auto& [pos, node] : ref.entries()) {
    if (!same(pos - 1) || !same(pos) || !same(pos + 1)) {
      return;
    }
  }
}

std::vector<uint32_t> NodeIds(uint32_t first, uint32_t count) {
  std::vector<uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

std::string ShapeName(int replicas, const std::vector<uint32_t>& nodes) {
  return std::to_string(replicas) + " replicas, nodes " + std::to_string(nodes.front()) + ".." +
         std::to_string(nodes.back());
}

// Every ring shape the simulator builds or a test names: the shard router's
// ring (nodes 0..3), today's HashRing tests (1..16) and event-cluster's
// 256-node cluster, at 1, 64 and 128 virtual replicas. Each shape goes
// through a LIFO shrink to empty and regrowth (in halving batches, so the
// batch and single-node forms both run), removing a middle node and adding
// it back, and the churn of five fresh ids; routing must equal the
// lower_bound reference after every change.
TEST(HashRingBucketTest, RoutesMatchLowerBoundReferenceAcrossMembershipChanges) {
  const std::vector<std::vector<uint32_t>> node_sets = {NodeIds(1, 1), NodeIds(0, 4),
                                                         NodeIds(1, 16), NodeIds(1, 256)};
  for (const int replicas : {1, 64, 128}) {
    for (const std::vector<uint32_t>& nodes : node_sets) {
      SCOPED_TRACE(ShapeName(replicas, nodes));
      HashRing ring(replicas);
      LowerBoundRing ref(replicas);
      ring.AddNodes(nodes);
      for (const uint32_t n : nodes) {
        ref.AddNode(n);
      }
      ExpectSameRoutes(ring, ref);

      // LIFO shrink to empty: drop the newest half (rounded up) each step.
      size_t live = nodes.size();
      while (live > 0) {
        const size_t drop = (live + 1) / 2;
        const std::span<const uint32_t> newest(nodes.data() + live - drop, drop);
        if (drop == 1) {
          ring.RemoveNode(newest[0]);
        } else {
          ring.RemoveNodes(newest);
        }
        for (size_t i = live; i-- > live - drop;) {
          ref.RemoveNode(nodes[i]);
        }
        live -= drop;
        SCOPED_TRACE("shrunk to " + std::to_string(live));
        ExpectSameRoutes(ring, ref);
      }
      // Regrow in launch order, doubling each step.
      while (live < nodes.size()) {
        const size_t add = std::max<size_t>(1, std::min(live, nodes.size() - live));
        const std::span<const uint32_t> next(nodes.data() + live, add);
        if (add == 1) {
          ring.AddNode(next[0]);
        } else {
          ring.AddNodes(next);
        }
        for (const uint32_t n : next) {
          ref.AddNode(n);
        }
        live += add;
        SCOPED_TRACE("regrown to " + std::to_string(live));
        ExpectSameRoutes(ring, ref);
      }

      const uint32_t middle = nodes[nodes.size() / 2];
      ring.RemoveNode(middle);
      ref.RemoveNode(middle);
      ExpectSameRoutes(ring, ref);
      ring.AddNode(middle);
      ref.AddNode(middle);
      ExpectSameRoutes(ring, ref);

      for (uint32_t churn = nodes.back() + 1; churn <= nodes.back() + 5; ++churn) {
        SCOPED_TRACE("churn " + std::to_string(churn));
        ring.AddNode(churn);
        ref.AddNode(churn);
        ExpectSameRoutes(ring, ref);
        ring.RemoveNode(churn);
        ref.RemoveNode(churn);
        ExpectSameRoutes(ring, ref);
      }
    }
  }
}

TEST(CacheClusterTest, StartsEmpty) {
  CacheCluster c(1000);
  EXPECT_EQ(c.num_nodes(), 0u);
  EXPECT_FALSE(c.Get(1));  // no nodes: trivially a miss
}

TEST(CacheClusterTest, ResizeUpReturnsNewNodes) {
  CacheCluster c(1000);
  const auto added = c.Resize(3);
  EXPECT_EQ(added.size(), 3u);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.total_capacity(), 3000u);
}

TEST(CacheClusterTest, ResizeDownRemoves) {
  CacheCluster c(1000);
  c.Resize(3);
  const auto added = c.Resize(1);
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(c.num_nodes(), 1u);
}

TEST(CacheClusterTest, PutGetRoundTrip) {
  CacheCluster c(1000);
  c.Resize(4);
  for (ObjectId id = 0; id < 50; ++id) {
    c.Put(id, 10);
  }
  for (ObjectId id = 0; id < 50; ++id) {
    EXPECT_TRUE(c.Get(id)) << id;
  }
  EXPECT_EQ(c.used_bytes(), 500u);
}

TEST(CacheClusterTest, DeleteRemoves) {
  CacheCluster c(1000);
  c.Resize(2);
  c.Put(1, 10);
  c.Delete(1);
  EXPECT_FALSE(c.Get(1));
}

TEST(CacheClusterTest, ScaleOutLosesRedistributedKeys) {
  CacheCluster c(100000);
  c.Resize(2);
  for (ObjectId id = 0; id < 1000; ++id) {
    c.Put(id, 10);
  }
  c.Resize(4);
  int hits = 0;
  for (ObjectId id = 0; id < 1000; ++id) {
    if (c.Get(id)) {
      ++hits;
    }
  }
  // Keys routed to the new nodes now miss (cold), the rest still hit.
  EXPECT_LT(hits, 1000);
  EXPECT_GT(hits, 300);
}

TEST(CacheClusterTest, PrimingFillsNewNodesFromOscMruOrder) {
  PackingConfig pc;
  ObjectStorageCache osc(pc);
  for (ObjectId id = 0; id < 200; ++id) {
    osc.Admit(id, 100);
  }
  CacheCluster c(100000);  // plenty of room per node
  c.Resize(1);
  const auto added = c.Resize(3);
  const uint64_t primed = c.Prime(osc, added);
  EXPECT_GT(primed, 0u);
  // Every primed object must actually hit now.
  uint64_t hits = 0;
  for (ObjectId id = 0; id < 200; ++id) {
    if (c.Get(id)) {
      ++hits;
    }
  }
  EXPECT_GE(hits, primed);
}

TEST(CacheClusterTest, PrimingRespectsNodeCapacity) {
  PackingConfig pc;
  ObjectStorageCache osc(pc);
  for (ObjectId id = 0; id < 1000; ++id) {
    osc.Admit(id, 100);
  }
  CacheCluster c(500);  // tiny nodes: 5 objects each
  const auto added = c.Resize(2);
  c.Prime(osc, added);
  EXPECT_LE(c.used_bytes(), 1000u);
}

TEST(CacheClusterTest, PrimeWithNoNewNodesIsNoOp) {
  PackingConfig pc;
  ObjectStorageCache osc(pc);
  osc.Admit(1, 10);
  CacheCluster c(1000);
  c.Resize(1);
  EXPECT_EQ(c.Prime(osc, {}), 0u);
}

TEST(CacheClusterTest, PerNodeCapacityIsEnforced) {
  CacheCluster c(100);
  c.Resize(2);
  for (ObjectId id = 0; id < 100; ++id) {
    c.Put(id, 30);
  }
  EXPECT_LE(c.used_bytes(), 200u);
}

// The cluster before the dense node table: nodes in a hash map keyed by id,
// a max-id scan for the LIFO victim, and hash sets for priming, kept
// verbatim (metrics aside) on the lower_bound ring.
class MapCluster {
 public:
  explicit MapCluster(uint64_t node_capacity_bytes) : node_capacity_(node_capacity_bytes) {}

  std::vector<uint32_t> Resize(size_t nodes) {
    std::vector<uint32_t> added;
    while (num_nodes() < nodes) {
      const uint32_t id = next_node_id_++;
      nodes_.emplace(id, LruCache(node_capacity_));
      ring_.AddNode(id);
      added.push_back(id);
    }
    while (num_nodes() > nodes) {
      // Terminate the most recently launched node (simple LIFO policy).
      uint32_t victim = 0;
      for (const auto& [id, cache] : nodes_) {
        victim = std::max(victim, id);
      }
      ring_.RemoveNode(victim);
      nodes_.erase(victim);
    }
    return added;
  }

  bool GetHashed(ObjectId id, uint64_t h) {
    if (ring_.empty()) {
      return false;
    }
    return nodes_.at(ring_.RouteHashed(h)).GetPrehashed(id, h);
  }

  void PutHashed(ObjectId id, uint64_t h, uint64_t size) {
    if (ring_.empty()) {
      return;
    }
    nodes_.at(ring_.RouteHashed(h)).PutPrehashed(id, h, size);
  }

  void DeleteHashed(ObjectId id, uint64_t h) {
    if (ring_.empty()) {
      return;
    }
    nodes_.at(ring_.RouteHashed(h)).ErasePrehashed(id, h);
  }

  uint64_t Prime(const ObjectStorageCache& osc, const std::vector<uint32_t>& new_nodes) {
    if (new_nodes.empty() || ring_.empty()) {
      return 0;
    }
    const std::unordered_set<uint32_t> targets(new_nodes.begin(), new_nodes.end());
    // A node is full for priming purposes once adding more would evict.
    std::unordered_set<uint32_t> full;
    uint64_t primed = 0;
    osc.ForEachMruToLru([&](ObjectId id, uint64_t size) {
      const uint64_t h = Mix64(id);  // one hash routes and indexes
      const uint32_t owner = ring_.RouteHashed(h);
      if (!targets.contains(owner) || full.contains(owner)) {
        return true;
      }
      LruCache& node = nodes_.at(owner);
      if (node.used_bytes() + size > node.capacity()) {
        full.insert(owner);
        // Stop once every target node has filled.
        return full.size() < targets.size();
      }
      if (!node.ContainsPrehashed(id, h)) {
        node.PutPrehashed(id, h, size);
        ++primed;
      }
      return true;
    });
    return primed;
  }

  size_t num_nodes() const { return ring_.num_nodes(); }

  uint64_t used_bytes() const {
    uint64_t total = 0;
    for (const auto& [id, cache] : nodes_) {
      total += cache.used_bytes();
    }
    return total;
  }

 private:
  uint64_t node_capacity_;
  LowerBoundRing ring_;
  std::unordered_map<uint32_t, LruCache> nodes_;
  uint32_t next_node_id_ = 1;
};

// The cluster and the map-based reference serve one Zipf stream of GETs
// (cache-aside fill on a miss), PUTs and DELETEs through the resize
// schedule 0→3→1→5→256→2→0→4, priming every launch from a shared OSC.
// Nodes are small, so LRU eviction runs throughout.
TEST(CacheClusterDifferentialTest, MatchesMapBasedClusterThroughResizes) {
  constexpr uint64_t kNodeCapacity = 16 * 1024;
  CacheCluster cluster(kNodeCapacity);
  MapCluster ref(kNodeCapacity);
  PackingConfig pc;
  ObjectStorageCache osc(pc);
  Rng rng(31);
  const ZipfSampler zipf(4000, 0.8);
  int total_hits = 0;
  const auto serve = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const ObjectId id = zipf.Sample(rng);
      const uint64_t h = Mix64(id);
      const uint64_t size = 64 + Mix64(id ^ 0x5bd1e995) % 2048;
      const double u = rng.NextDouble();
      if (u < 0.6) {
        const bool hit = cluster.GetHashed(id, h);
        ASSERT_EQ(hit, ref.GetHashed(id, h)) << "request " << i << " id " << id;
        total_hits += hit ? 1 : 0;
        if (!hit) {
          osc.Admit(id, size);
          cluster.PutHashed(id, h, size);
          ref.PutHashed(id, h, size);
        }
      } else if (u < 0.9) {
        osc.Admit(id, size);
        cluster.PutHashed(id, h, size);
        ref.PutHashed(id, h, size);
      } else {
        cluster.DeleteHashed(id, h);
        ref.DeleteHashed(id, h);
      }
    }
  };
  serve(20000);
  ASSERT_FALSE(HasFatalFailure());
  uint64_t total_primed = 0;
  for (const size_t nodes : {3, 1, 5, 256, 2, 0, 4}) {
    SCOPED_TRACE("resized to " + std::to_string(nodes));
    const std::vector<uint32_t> added = cluster.Resize(nodes);
    ASSERT_EQ(added, ref.Resize(nodes));
    ASSERT_EQ(cluster.num_nodes(), ref.num_nodes());
    ASSERT_EQ(cluster.num_nodes(), nodes);
    const uint64_t primed = cluster.Prime(osc, added);
    ASSERT_EQ(primed, ref.Prime(osc, added));
    total_primed += primed;
    ASSERT_EQ(cluster.used_bytes(), ref.used_bytes());
    serve(20000);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_EQ(cluster.used_bytes(), ref.used_bytes());
  }
  // The stream must exercise hits and priming, not just agree on misses.
  EXPECT_GT(total_hits, 10000);
  EXPECT_GT(total_primed, 100u);
}

}  // namespace
}  // namespace macaron
