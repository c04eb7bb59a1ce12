// Miniature simulation for MRC and BMC construction (§5.2).
//
// Following Waldspurger et al., each emulated cache size C is represented by
// a mini-cache of capacity C * R processing the spatially sampled request
// stream (sampling ratio R). Per window, the bank reports
//   MRC(C) = sampled misses / sampled gets
//   BMC(C) = sampled missed bytes / realized admission rate
// both normalized by the *realized* admission rate (sampled gets / gets),
// so the two estimators stay consistent when the spatial sampler under- or
// over-admits on a small window. Mini-cache state persists across windows
// (the paper stores it in EFS between serverless invocations).
//
// The bank consumes the unsampled stream as chunk column ranges through a
// SampledBatchPipeline (sampled_batch_pipeline.h), which samples, counts
// the window and buffers admitted requests into fixed-size SoA batches
// carrying the sampler's admission hash; each request is hashed exactly
// once, for all grid points. How a batch replays depends on the policy.

// LRU (the default) replays every grid point in one pass over a shared
// recency timeline. LRU is a stack policy: a GET or PUT leaves the object
// most recent in every mini-cache that holds it, and every insertion
// happens at such a touch, so each mini-cache's recency list is a
// subsequence of one global order — the order of each live object's last
// GET or PUT. The bank keeps that order as an append-only timeline (a touch
// kills the object's old slot and appends a new one; one FlatIndex+NodeSlab
// maps id -> size and slot), and per grid point i only its mini capacity
// cap_i, its used bytes and an eviction floor_i. The exactness argument:
//   * Grid point i holds exactly the live timeline entries at or above
//     floor_i whose size fits cap_i. Its LRU tail is the lowest such entry,
//     so eviction subtracts it and moves floor_i just past it.
//   * A miss admits the object at the top where it fits, as LruCache does;
//     an object larger than cap_i is never admitted, and the fit test keeps
//     its top slot out of grid point i.
//   * A PUT that grows a resident object past cap_i empties that grid point
//     (LruCache::PutPrehashed evicts everything, the object last): used_i
//     drops to 0 and floor_i moves past the top.
//   * A DELETE leaves a hole: the slot dies and every grid point holding it
//     gives back its bytes, but no floor moves, so nothing evicted earlier
//     comes back. That is why Olken's ReuseDistanceAnalyzer, whose Remove
//     shortens later distances, is not exact here, and why the hits of one
//     request need not form an upper range of the grid: hit sets are not
//     contiguous, so the hit test stays per grid point.
//   * A GET whose size differs from a resident copy's is the one input a
//     shared timeline cannot represent: the grid points holding the copy
//     hit and keep the old size, the others admit the new one. On that GET
//     the bank rebuilds per-grid LruCaches from the timeline (oldest entry
//     first, so recency order and used bytes carry over) and replays the
//     rest of the stream through them.
// The timeline is compacted whenever its dead slots outnumber its live
// ones, or its slots below every floor outnumber the rest (a scan kills no
// slot); entries no grid point holds are dropped then, since a later touch
// of them behaves exactly like a first touch. A sampled request thus costs
// one index probe and one short pass over the grid's arrays, where the
// per-grid replay costs one probe per grid point.
//
// FIFO, SLRU and S3-FIFO are not stack policies: each grid point replays
// the batch against its own mini-cache through the policy's devirtualized
// prehashed kernel (EvictionCache::ReplayMiniSim). Grid points share no
// mutable state, so an optional ThreadPool fans them across cores; parallel
// and sequential replay produce bit-identical curves.
//
// The LRU timeline is one replay task per batch, which async replay (see
// the pipeline) submits to the pool; the other policies fan out one task
// per grid point. Outputs are bit-identical at any thread count, sync or
// async.

#ifndef MACARON_SRC_MINISIM_MRC_BANK_H_
#define MACARON_SRC_MINISIM_MRC_BANK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/replay_batch.h"
#include "src/common/curve.h"
#include "src/common/thread_pool.h"
#include "src/minisim/sampled_batch_pipeline.h"

namespace macaron {

// The per-window output of a bank.
struct WindowCurves {
  Curve mrc;  // x: full-scale capacity bytes, y: object miss ratio
  Curve bmc;  // x: full-scale capacity bytes, y: full-scale bytes missed in the window
  uint64_t sampled_gets = 0;    // sampled GETs observed (post-sampling)
  uint64_t window_requests = 0; // raw (unsampled) requests in the window
};

class MrcBank {
 public:
  // grid: full-scale capacities; ratio: spatial sampling ratio in (0,1].
  // policy: the replacement policy the mini-caches emulate — it must match
  // the policy deployed in the real cache for the curves to predict it.
  MrcBank(std::vector<uint64_t> grid, double ratio, uint64_t salt,
          EvictionPolicyKind policy = EvictionPolicyKind::kLru);

  ~MrcBank();

  // Execution and metrics wiring for the bank's pipeline (see
  // SampledBatchPipeline). The LRU timeline replays in one pass and uses
  // the pool only for async replay. Curves are identical for any pool,
  // sync or async.
  void SetExecution(ThreadPool* pool, bool async) { pipeline_.SetExecution(pool, async); }
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    pipeline_.set_metrics(batches, batch_requests);
  }

  // Feeds rows [begin, end) of `chunk` (unsampled stream; the bank samples
  // internally).
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    pipeline_.Append(chunk, begin, end);
  }

  // Returns this window's curves and resets window counters. Cache contents
  // persist.
  WindowCurves EndWindow();

  const std::vector<uint64_t>& grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches — or in the
  // LRU timeline's one slab (live + freelist). Once the bank reaches steady
  // state this stops growing: windows reuse slab nodes instead of
  // allocating (see slab_lru.h). The slab-reuse regression test pins that
  // property.
  size_t allocated_nodes() const;

  // True while an LRU bank replays through the shared timeline, false for
  // the other policies and once the size-mismatch fallback has rebuilt the
  // per-grid caches (see file comment). Read between windows: async replay
  // may switch it while a batch is in flight.
  bool one_pass() const { return timeline_ != nullptr; }

  // Times the LRU timeline has been compacted (0 without a timeline). Read
  // between windows.
  uint64_t timeline_compactions() const;

 private:
  class LruTimeline;

  void ReplayGridPoint(const ReplayBatch& batch, size_t i);
  void ReplayTimeline(const ReplayBatch& batch);

  std::vector<uint64_t> grid_;
  std::unique_ptr<LruTimeline> timeline_;  // kLru until the fallback, else null
  std::vector<std::unique_ptr<EvictionCache>> caches_;  // empty while timeline_ is set
  std::vector<uint64_t> window_misses_;
  std::vector<uint64_t> window_missed_bytes_;
  // Last: its destructor joins the replay in flight, which uses the above.
  SampledBatchPipeline pipeline_;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_MRC_BANK_H_
