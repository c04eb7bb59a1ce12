// Two-level miniature simulation for the average latency curve (ALC, §5.2).
//
// Each grid point emulates a (cache cluster of size X, OSC of the currently
// chosen size) pair, both scaled by the sampling ratio. Unlike Symbiosis,
// Macaron computes the latency of every access *during* the simulation from
// the current latency generator (capturing object-size drift), and models
// request delaying: a duplicate access while a remote fetch is in flight is
// counted at remote latency, not as a cluster hit (Fig 5).
//
// The bank also exposes per-level hit counters per grid point so callers can
// construct the Symbiosis-style ALC (fixed per-level latencies multiplied by
// hit ratios) for the accuracy comparison of Fig 5.
//
// Sampled requests are buffered into fixed-size SoA batches carrying the
// sampler's admission hash (see replay_batch.h); the per-source latency
// draws happen at Process/ProcessColumns time (one RNG pass, in stream
// order, shared across grid points).
//
// Why each grid point still replays on its own: neither level is a stack
// algorithm across the grid, so MrcBank's shared recency timeline does not
// carry over: a delayed hit skips the cluster touch only at the grid
// points whose fetch is still in flight, and each grid point's OSC sees
// only its own cluster's misses.
//
// What is shared is the id lookup. At flush time, on the calling thread,
// one bank-wide FlatIndex + NodeSlab maps each sampled id to a dense slot,
// once per request, and each grid point replays the batch over its own
// slot-indexed rows with no hashing. A row (40 bytes) holds, per level
// (cluster, OSC), the resident size (a marker when absent) and the LRU
// prev/next slots, plus the completion time of the in-flight remote fetch
// (a marker when none). The row kernel has the exact semantics of LruCache
// and InflightTable: a hit moves to MRU without resizing, a miss admits
// only what fits, a PUT that grows a resident copy past capacity evicts
// down with the object last, SetOscCapacity evicts down, `completion >
// now` is a delayed hit, an expired fetch is cleared, and DELETE clears
// all three.
//
// Slot reclamation: at a batch boundary, after the previous batch's join,
// once live slots have doubled since the last scan (and number at least
// one batch), every slot that no grid point holds at either level and
// whose fetches all completed by the newest replayed time goes back to the
// slab with its rows reset. That is exact because request times never
// decrease (a Trace invariant the MCTC writer enforces): a fetch that
// completed by the newest replayed time is expired for every later
// request, so a fresh slot behaves the same. The bank DCHECKs the part it
// relies on: no request replayed after a scan predates it. Reclamation
// bounds the slots by what the caches hold plus recent fetches, instead of
// one per distinct sampled id.
//
// Grid points share no mutable state during a replay, so an optional
// ThreadPool fans them across cores with bit-identical results.
// set_async_replay(true) additionally overlaps that fan-out with the
// calling thread by submitting it instead of joining, double-buffering the
// batch, its slots and its latency columns; see mrc_bank.h for the
// in-flight/join discipline. Slot resolution, row growth and reclamation
// run on the calling thread after that join.

#ifndef MACARON_SRC_MINISIM_ALC_BANK_H_
#define MACARON_SRC_MINISIM_ALC_BANK_H_

#include <cstdint>
#include <future>
#include <limits>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/cache/replay_batch.h"
#include "src/cache/slab_lru.h"
#include "src/cloudsim/latency.h"
#include "src/common/curve.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/thread_pool.h"
#include "src/trace/request.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

// Per-grid-point level hit counters for one window.
struct AlcLevelCounts {
  uint64_t cluster_hits = 0;
  uint64_t osc_hits = 0;
  uint64_t remote_misses = 0;   // true remote fetches
  uint64_t delayed_hits = 0;    // coalesced onto an in-flight fetch
  uint64_t total() const { return cluster_hits + osc_hits + remote_misses + delayed_hits; }
};

struct AlcWindow {
  // x: cluster capacity (full-scale bytes); y: mean latency ms.
  Curve alc;
  std::vector<AlcLevelCounts> level_counts;  // parallel to the grid
  uint64_t sampled_gets = 0;
};

class AlcBank {
 public:
  // cluster_grid: full-scale cluster capacities (the ALC x axis).
  AlcBank(std::vector<uint64_t> cluster_grid, uint64_t osc_capacity, double ratio, uint64_t salt,
          const LatencySampler* latency, uint64_t seed);

  ~AlcBank();

  // Fans grid points across `pool` at batch boundaries; nullptr (the
  // default) replays sequentially. Curves are identical either way.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  // With a pool set, submit batch fan-outs instead of joining them (see
  // file comment). Off by default; curves are identical either way.
  void set_async_replay(bool async) { async_ = async; }

  // Optional counters, bumped only at batch boundaries (never per request,
  // keeping the Process hot path untouched). Pass both or neither.
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    m_batches_ = batches;
    m_batch_requests_ = batch_requests;
  }

  // Updates the emulated OSC capacity (decided by the controller each
  // window); evicts every grid point's OSC level down to it.
  void SetOscCapacity(uint64_t osc_capacity);

  void Process(const Request& r);

  // Columnar equivalent of calling Process on rows [begin, end) of `chunk`
  // in order: the admission rehash + compaction run branch-free over the id
  // column (the chunk's hash column is the engines' ingest domain, not this
  // bank's salted domain), latency draws happen per admitted GET in stream
  // order (the exact RNG sequence of the per-row path), and survivors
  // append to the replay batch in bulk. Batches flush at the exact same
  // stream positions as the per-row path.
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end);

  AlcWindow EndWindow();

  const std::vector<uint64_t>& cluster_grid() const { return grid_; }

  // Slots the bank ever materialized (live + freelist), one per sampled
  // object it tracks, each with one row per grid point. Reclamation (see
  // file comment) recycles slots, so this stops growing once the tracked
  // population does.
  size_t allocated_nodes() const { return slab_.allocated_nodes(); }

 private:
  // Per-grid-point rows and level lists; defined in alc_bank.cc.
  struct GridPoint;

  // The batch, its slots and its parallel latency columns travel together
  // through the double-buffered flush.
  struct PendingBatch {
    ReplayBatch batch;
    std::vector<uint32_t> slots;  // filled by ResolveSlots at flush time
    std::vector<double> lat_cluster;
    std::vector<double> lat_osc;
    std::vector<double> lat_remote;
    void Clear() {
      batch.Clear();
      slots.clear();
      lat_cluster.clear();
      lat_osc.clear();
      lat_remote.clear();
    }
  };

  void FlushBatch();
  void JoinPending();
  void MaybeReclaimSlots();
  void ResolveSlots(PendingBatch& b);
  void ReplayGridPoint(const PendingBatch& b, size_t i);

  std::vector<uint64_t> grid_;
  double ratio_;
  SpatialSampler sampler_;
  const LatencySampler* latency_;
  Rng rng_;
  ThreadPool* pool_ = nullptr;
  bool async_ = false;
  // Sampled requests (+ admission hashes) awaiting replay, with their
  // pre-drawn latencies in parallel columns (GETs only; one draw per
  // source, shared across grid points, so curves differ only through cache
  // behaviour — lower variance, one RNG pass).
  PendingBatch filling_;
  PendingBatch replaying_;  // shadow buffer owned by the in-flight async replay
  std::vector<std::future<void>> pending_;  // outstanding async fan-out chunks
  // Survivor scratch for ProcessColumns (position + salted hash + latency
  // draws per admitted row), reused across chunks.
  std::vector<uint32_t> idx_scratch_;
  std::vector<uint64_t> hash_scratch_;
  std::vector<double> lat_scratch_[3];
  // id -> slot, in the sampler's hash domain; touched only on the calling
  // thread between joins.
  FlatIndex index_;
  NodeSlab slab_;
  std::vector<GridPoint> points_;
  // Reclamation state: live slots after the last scan, the newest request
  // time resolved so far (all of it replayed by the next join), and the
  // newest time at the last scan.
  size_t live_after_scan_ = 0;
  SimTime newest_time_ = std::numeric_limits<SimTime>::min();
  SimTime scan_time_ = std::numeric_limits<SimTime>::min();
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_ALC_BANK_H_
