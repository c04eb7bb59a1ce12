// Elastic DRAM cache cluster (§4.2, §6.2).
//
// The first caching level: consistent-hashed LRU nodes (26 GiB usable each,
// matching cache.r5.xlarge). The controller scales the node count; newly
// launched nodes are primed from the OSC's LRU order so that low-RPS object
// storage workloads do not leave fresh capacity cold.
//
// Node ids are issued in sequence and a shrink terminates the most recently
// launched node first, so the nodes live in a vector in launch order with
// the next victim at the back. A routed id finds its node through a dense
// id -> slot table (4 bytes per node ever launched): a cluster access is one
// ring route plus two array reads. A resize changes the ring in one batch.

#ifndef MACARON_SRC_CLUSTER_CACHE_CLUSTER_H_
#define MACARON_SRC_CLUSTER_CACHE_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "src/cache/lru_cache.h"
#include "src/cluster/hash_ring.h"
#include "src/common/hash.h"
#include "src/osc/osc.h"

namespace macaron {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

class CacheCluster {
 public:
  explicit CacheCluster(uint64_t node_capacity_bytes);

  // Scales to `nodes`; returns ids of newly launched nodes (for priming).
  std::vector<uint32_t> Resize(size_t nodes);

  // Routed operations. Get promotes on hit. The Hashed variants take
  // h = Mix64(id), computed once per request by the engines; the plain
  // forms hash internally. The same h routes on the ring and indexes the
  // owning node (hash-once request path).
  bool Get(ObjectId id) { return GetHashed(id, Mix64(id)); }
  void Put(ObjectId id, uint64_t size) { PutHashed(id, Mix64(id), size); }
  void Delete(ObjectId id) { DeleteHashed(id, Mix64(id)); }
  bool GetHashed(ObjectId id, uint64_t h);
  void PutHashed(ObjectId id, uint64_t h, uint64_t size);
  void DeleteHashed(ObjectId id, uint64_t h);

  // Preloads `new_nodes` (live node ids, as Resize returns them) from the
  // OSC LRU order (hottest first) until each node is full or the OSC is
  // exhausted. Only objects routed to a new node are loaded. Returns the
  // number of objects primed (each costs one OSC byte-range GET, charged by
  // the caller).
  uint64_t Prime(const ObjectStorageCache& osc, const std::vector<uint32_t>& new_nodes);

  size_t num_nodes() const { return nodes_.size(); }
  uint64_t used_bytes() const;

  // Attaches routing/priming counters ("cluster" component); nullptr (the
  // default) detaches, leaving a null-check per site.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  // The live node routed to by hash h; the ring must be non-empty.
  LruCache& NodeFor(uint64_t h) { return nodes_[slot_of_[ring_.RouteHashed(h)]]; }

  uint64_t node_capacity_;
  HashRing ring_;
  // Live nodes in launch order, and their ids (ascending).
  std::vector<LruCache> nodes_;
  std::vector<uint32_t> ids_;
  // slot_of_[id]: index of node `id` in nodes_; stale for terminated ids.
  std::vector<uint32_t> slot_of_;
  uint32_t next_node_id_ = 1;
  obs::Counter* m_lookups_ = nullptr;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_puts_ = nullptr;
  obs::Counter* m_resizes_ = nullptr;
  obs::Counter* m_nodes_added_ = nullptr;
  obs::Counter* m_nodes_removed_ = nullptr;
  obs::Counter* m_primed_objects_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_CLUSTER_CACHE_CLUSTER_H_
