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
// The bank consumes the unsampled stream as chunk column ranges through a
// SampledBatchPipeline (sampled_batch_pipeline.h), which samples and
// buffers admitted requests into fixed-size SoA batches carrying the
// sampler's admission hash. The per-source latency draws happen when a
// batch is prepared for replay, on the calling thread, batch by batch: one
// RNG pass in stream order, shared across grid points.
//
// Why each grid point still replays on its own: neither level is a stack
// algorithm across the grid, so MrcBank's shared recency timeline does not
// carry over: a delayed hit skips the cluster touch only at the grid
// points whose fetch is still in flight, and each grid point's OSC sees
// only its own cluster's misses.
//
// What is shared is the id lookup. When a batch is prepared, one
// bank-wide FlatIndex + NodeSlab maps each sampled id to a dense slot, once
// per request, and each grid point replays the batch over its own
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
// Grid points share no mutable state during a replay, so the pipeline fans
// them across an optional ThreadPool, or submits that fan-out
// asynchronously, with bit-identical results. Slot resolution, the latency
// draws, row growth and reclamation all run in the prepare step, after the
// join of the batch in flight, so the slot and latency columns the replay
// tasks read need no second buffer.

#ifndef MACARON_SRC_MINISIM_ALC_BANK_H_
#define MACARON_SRC_MINISIM_ALC_BANK_H_

#include <cstdint>
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
#include "src/minisim/sampled_batch_pipeline.h"

namespace macaron {

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

  // Execution and metrics wiring for the bank's pipeline (see
  // SampledBatchPipeline). Curves are identical for any pool, sync or async.
  void SetExecution(ThreadPool* pool, bool async) { pipeline_.SetExecution(pool, async); }
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    pipeline_.set_metrics(batches, batch_requests);
  }

  // Updates the emulated OSC capacity (decided by the controller each
  // window); evicts every grid point's OSC level down to it.
  void SetOscCapacity(uint64_t osc_capacity);

  // Feeds rows [begin, end) of `chunk` (unsampled stream; the bank samples
  // internally).
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    pipeline_.Append(chunk, begin, end);
  }

  AlcWindow EndWindow();

  // Slots the bank ever materialized (live + freelist), one per sampled
  // object it tracks, each with one row per grid point. Reclamation (see
  // file comment) recycles slots, so this stops growing once the tracked
  // population does.
  size_t allocated_nodes() const { return slab_.allocated_nodes(); }

 private:
  // Per-grid-point rows and level lists; defined in alc_bank.cc.
  struct GridPoint;

  size_t PrepareBatch(const ReplayBatch& batch);
  void MaybeReclaimSlots();
  void ReplayGridPoint(const ReplayBatch& batch, size_t i);

  std::vector<uint64_t> grid_;
  const LatencySampler* latency_;
  Rng rng_;
  // Per row of the prepared batch: its slot, and its pre-drawn latency per
  // source (GETs only; one draw per source, shared across grid points, so
  // curves differ only through cache behaviour — lower variance, one RNG
  // pass).
  std::vector<uint32_t> slots_;
  std::vector<double> lat_cluster_;
  std::vector<double> lat_osc_;
  std::vector<double> lat_remote_;
  // id -> slot, in the sampler's hash domain; touched only by the prepare
  // step.
  FlatIndex index_;
  NodeSlab slab_;
  std::vector<GridPoint> points_;
  // Reclamation state: live slots after the last scan, the newest request
  // time prepared so far (all of it replayed by the next join), and the
  // newest time at the last scan.
  size_t live_after_scan_ = 0;
  SimTime newest_time_ = std::numeric_limits<SimTime>::min();
  SimTime scan_time_ = std::numeric_limits<SimTime>::min();
  // Last: its destructor joins the replay in flight, which uses the above.
  SampledBatchPipeline pipeline_;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_ALC_BANK_H_
