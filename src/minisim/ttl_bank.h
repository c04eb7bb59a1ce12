// TTL-parameterized miniature simulation (Appendix B).
//
// For Macaron-TTL the curves use TTL on the x axis instead of capacity.
// Spatial sampling still applies, but mini-caches are *not* size-scaled
// (TTL eviction is capacity-independent); instead, missed bytes and the
// occupied capacity are divided by the realized admission rate afterwards
// (matching MrcBank's normalization — see mrc_bank.h). In addition to
// MRC(TTL) and BMC(TTL) the bank reports the OSC Capacity Curve: the
// time-averaged bytes resident for each candidate TTL.
//
// Like MrcBank, the bank consumes the unsampled stream through a
// SampledBatchPipeline (sampled_batch_pipeline.h), which samples, counts
// the window and buffers admitted requests into fixed-size SoA batches
// carrying the sampler's admission hash (hashed once per request, reused
// by every candidate TTL's mini-cache). Each candidate TTL replays the
// batch against its own mini-cache; grid points are independent, so the
// pipeline fans them across an optional ThreadPool, sync or async, with
// bit-identical results.

#ifndef MACARON_SRC_MINISIM_TTL_BANK_H_
#define MACARON_SRC_MINISIM_TTL_BANK_H_

#include <cstdint>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/cache/ttl_cache.h"
#include "src/common/curve.h"
#include "src/common/sim_time.h"
#include "src/common/thread_pool.h"
#include "src/minisim/sampled_batch_pipeline.h"

namespace macaron {

struct TtlWindowCurves {
  Curve mrc;       // x: TTL ms, y: object miss ratio
  Curve bmc;       // x: TTL ms, y: full-scale bytes missed in the window
  Curve capacity;  // x: TTL ms, y: full-scale time-averaged resident bytes
  uint64_t sampled_gets = 0;
  uint64_t window_requests = 0;
};

// The standard candidate-TTL grid: 1 h, 6 h, then every 12 h up to max
// (matching the exhaustive-search grid of §7.8).
std::vector<SimDuration> StandardTtlGrid(SimDuration max_ttl);

class TtlBank {
 public:
  TtlBank(std::vector<SimDuration> ttl_grid, double ratio, uint64_t salt);

  // Execution and metrics wiring for the bank's pipeline (see
  // SampledBatchPipeline). Curves are identical for any pool, sync or async.
  void SetExecution(ThreadPool* pool, bool async) { pipeline_.SetExecution(pool, async); }
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    pipeline_.set_metrics(batches, batch_requests);
  }

  // Feeds rows [begin, end) of `chunk` (unsampled stream; the bank samples
  // internally).
  void ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
    pipeline_.Append(chunk, begin, end);
  }

  // `window`: the elapsed window duration, used for time-averaging capacity.
  TtlWindowCurves EndWindow(SimDuration window);

  const std::vector<SimDuration>& ttl_grid() const { return grid_; }

  // Total slab slots ever materialized across all mini-caches (live +
  // freelist); stops growing at steady state (see slab_lru.h).
  size_t allocated_nodes() const;

 private:
  struct Entry {
    TtlCache cache;
    uint64_t misses = 0;
    uint64_t missed_bytes = 0;
    // Time integral of resident bytes (byte-ms) for capacity averaging.
    double byte_time = 0.0;
    SimTime last_update = 0;
  };

  static void Advance(Entry& e, SimTime now);
  void ReplayGridPoint(const ReplayBatch& batch, size_t i);

  std::vector<SimDuration> grid_;
  std::vector<Entry> entries_;
  SimTime window_start_ = 0;
  // Last: its destructor joins the replay in flight, which uses the above.
  SampledBatchPipeline pipeline_;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_TTL_BANK_H_
