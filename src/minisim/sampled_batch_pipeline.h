// The sampling and batching front end the mini-simulation banks share.
//
// MrcBank, AlcBank and TtlBank consume the unsampled request stream as
// column ranges of engine chunks (ReplayBatch, ingest hash included) and
// differ only in how they replay what survives sampling. Everything before
// that replay lives here, once:
//   * Admission. The bank's salted SpatialSampler rehashes the id column
//     (the chunk's hash column is the engines' ingest domain, not the
//     bank's) and CompactAdmitted keeps the admitted rows branch-free. Each
//     survivor's salted hash is reused as its mini-cache index hash (SHARDS
//     hash reuse; see sampler.h), so no replay path hashes again.
//   * Window counters: requests, GETs and sampled GETs, and the realized
//     admission rate (sampled GETs / GETs) that normalizes the banks'
//     curves, so the estimators stay consistent when the sampler under- or
//     over-admits on a small window.
//   * Batching. Survivors append into a fixed-size SoA batch in slices
//     sized to its remaining room, so a batch always closes at the same
//     stream position however the stream is cut into chunks.
//   * The flush. It joins the batch in flight, then runs the bank's
//     prepare step on the calling thread, which readies the batch (slot
//     resolution and latency draws for the ALC) and returns how many
//     independent replay tasks it splits into: one per grid point (TTL,
//     non-LRU MRC), one for the LRU timeline, or one per pool worker, each
//     a contiguous range of grid points (ALC). The tasks then run inline
//     (no pool), fan out with ParallelFor (a pool), or, with async replay,
//     the batch is swapped into a shadow buffer and its tasks are
//     submitted instead of joined, so replay overlaps whatever the calling
//     thread does next (in the engines: serving shards and decoding the
//     next chunk).
//
// At most one batch is in flight, and its tasks finish before the next
// prepare step runs, so bank state written by prepare needs no second
// buffer and each replay task sees batches strictly in stream order.
// EndWindow joins before the bank reads its window state, and curves are
// bit-identical for any pool size, sync or async.

#ifndef MACARON_SRC_MINISIM_SAMPLED_BATCH_PIPELINE_H_
#define MACARON_SRC_MINISIM_SAMPLED_BATCH_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/common/thread_pool.h"
#include "src/trace/sampler.h"

namespace macaron {

namespace obs {
class Counter;
}  // namespace obs

class SampledBatchPipeline {
 public:
  // Sampled requests per replay batch. Bounds batch memory while keeping
  // per-grid-point replay runs long enough to amortize the fan-out; at the
  // default 5% sampling this is ~80k raw requests.
  static constexpr size_t kBatchCapacity = 4096;

  // Readies a full batch on the calling thread, with no batch in flight,
  // and returns its replay task count.
  using PrepareFn = std::function<size_t(const ReplayBatch&)>;
  // Replays task `t` of a prepared batch; one batch's tasks may run
  // concurrently.
  using ReplayFn = std::function<void(const ReplayBatch& batch, size_t t)>;

  // One window's counters, from the unsampled stream.
  struct Window {
    uint64_t requests = 0;
    uint64_t gets = 0;
    uint64_t sampled_gets = 0;
    // sampled_gets / gets, or the nominal ratio when either is zero (which
    // keeps the curves at exact zero without dividing by zero).
    double realized_rate = 0.0;
  };

  SampledBatchPipeline(double ratio, uint64_t salt, PrepareFn prepare, ReplayFn replay);
  // Joins the batch in flight. Its tasks use the owning bank's state, so a
  // bank declares its pipeline after that state.
  ~SampledBatchPipeline();

  SampledBatchPipeline(const SampledBatchPipeline&) = delete;
  SampledBatchPipeline& operator=(const SampledBatchPipeline&) = delete;

  // Fans replay tasks across `pool` (nullptr, the default, replays inline)
  // and, with `async`, submits them instead of joining (see file comment).
  void SetExecution(ThreadPool* pool, bool async) {
    pool_ = pool;
    async_ = async;
  }

  // Optional counters, bumped on the calling thread at each flush (never
  // per request), so the registry stays single-writer. Pass both or
  // neither.
  void set_metrics(obs::Counter* batches, obs::Counter* batch_requests) {
    m_batches_ = batches;
    m_batch_requests_ = batch_requests;
  }

  // Counts rows [begin, end) of `chunk` into the window and appends the
  // admitted ones to the batch, flushing each time it fills.
  void Append(const ReplayBatch& chunk, size_t begin, size_t end);

  // Replays everything buffered and waits for it: the point in the stream
  // at which the bank may change or read its replay state.
  void Drain();

  // Drains, then returns this window's counters and resets them.
  Window EndWindow();

  const SpatialSampler& sampler() const { return sampler_; }
  double ratio() const { return sampler_.ratio(); }

 private:
  void Flush();
  void Join();

  SpatialSampler sampler_;
  PrepareFn prepare_;
  ReplayFn replay_;
  ThreadPool* pool_ = nullptr;
  bool async_ = false;
  ReplayBatch filling_;    // sampled requests (+ salted hashes) being filled
  ReplayBatch replaying_;  // shadow buffer owned by the async replay in flight
  std::vector<std::future<void>> pending_;  // that replay's tasks
  // Survivor scratch for Append (position + salted hash per admitted row).
  std::vector<uint32_t> idx_scratch_;
  std::vector<uint64_t> hash_scratch_;
  Window window_;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_batch_requests_ = nullptr;
};

}  // namespace macaron

#endif  // MACARON_SRC_MINISIM_SAMPLED_BATCH_PIPELINE_H_
