// Streaming request sources: pull-next-ReplayBatch trace delivery.
//
// The engines historically consumed a fully materialized `const Trace&`,
// which caps honest experiments at RAM scale. A RequestSource delivers the
// same time-ordered request stream as a sequence of SoA chunks (ReplayBatch
// columns, ingest hash included), so the engines can replay traces that
// never exist in memory at once: an in-memory Trace adapter (this file),
// the columnar file reader (columnar_io.h), and the bounded-memory
// synthetic stream generator (stream_source.h) all speak this interface.
//
// Contract:
//  * Info() is available before the first FillNext and carries everything
//    the engines need up front (name, request count, time span, and the
//    full TraceStats their Setup derives configuration from).
//  * FillNext clears `out`, fills it with the next chunk, and returns true;
//    it returns false (leaving `out` empty) at end of stream. Chunks are
//    non-empty, time-ordered within and across chunks, and carry
//    hashes[i] == Mix64(ids[i]) — the one hash computation of the request
//    path (PR 4's hash-once discipline); shard routing and every cache
//    level below reuse it.
//  * Reset() rewinds to the first chunk; sources are reusable.
//
// ChunkCursor adds the decode-ahead pipeline on top: while the caller
// replays chunk N, a background ThreadPool worker decodes (and prehashes)
// chunk N+1 into the other half of a double buffer, so the replay hot loop
// never waits on the filesystem or the generator.

#ifndef MACARON_SRC_TRACE_REQUEST_SOURCE_H_
#define MACARON_SRC_TRACE_REQUEST_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "src/cache/replay_batch.h"
#include "src/common/thread_pool.h"
#include "src/trace/trace.h"

namespace macaron {

// Default records per delivered chunk, and per MCTC file chunk, so one
// chunk of any trace source is the same unit of work.
inline constexpr size_t kDefaultChunkRecords = 1 << 16;

// Everything the engines' Setup needs before the first request arrives.
struct SourceInfo {
  std::string name;
  uint64_t num_requests = 0;
  SimTime start_time = 0;
  SimTime end_time = 0;
  TraceStats stats;

  SimDuration duration() const { return end_time - start_time; }
  bool empty() const { return num_requests == 0; }
};

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  virtual const SourceInfo& Info() const = 0;

  // Rewinds the stream to the first chunk.
  virtual void Reset() = 0;

  // Delivers the next chunk into `out` (cleared first). False = exhausted.
  virtual bool FillNext(ReplayBatch* out) = 0;
};

// Adapter over a materialized in-memory trace. Decode is a column copy plus
// the Mix64 prehash per record. The trace must outlive the source.
class TraceSource : public RequestSource {
 public:
  explicit TraceSource(const Trace& trace, size_t chunk_records = kDefaultChunkRecords);
  // Takes `stats` as ComputeStats(trace) instead of running that pass, so
  // runs over one trace can share a single pass (SweepScheduler does).
  TraceSource(const Trace& trace, const TraceStats& stats,
              size_t chunk_records = kDefaultChunkRecords);

  const SourceInfo& Info() const override { return info_; }
  void Reset() override { pos_ = 0; }
  bool FillNext(ReplayBatch* out) override;

 private:
  const Trace& trace_;
  SourceInfo info_;
  size_t chunk_records_;
  size_t pos_ = 0;
};

// Computes a SourceInfo from a materialized trace (one stats pass).
SourceInfo MakeSourceInfo(const Trace& trace);
// The same with `stats` given as ComputeStats(trace) (no stats pass).
SourceInfo MakeSourceInfo(const Trace& trace, const TraceStats& stats);

// Appends reqs[0, n) to `out` as chunk rows carrying the ingest hash
// Mix64(id), exactly as a RequestSource delivers them. This is the one way
// from Request structs to the columnar observe path; TraceSource::FillNext
// uses it too.
void AppendRequests(const Request* reqs, size_t n, ReplayBatch* out);

// `reqs` as one chunk (see AppendRequests).
ReplayBatch ToChunk(const std::vector<Request>& reqs);

// Cuts `chunk` at analysis-window boundaries, the engines' way: before the
// first row at or past `*next_boundary` it calls boundary(*next_boundary)
// and advances it by `window`, once per boundary crossed (empty windows
// included), and it hands each run of rows between two boundaries to
// segment(begin, end). `*next_boundary` carries over to the next chunk;
// boundaries after the last row are left to the caller.
template <typename Boundary, typename Segment>
void ForEachWindowSegment(const ReplayBatch& chunk, SimDuration window, SimTime* next_boundary,
                          Boundary&& boundary, Segment&& segment) {
  const size_t n = chunk.size();
  size_t i = 0;
  while (i < n) {
    while (chunk.times[i] >= *next_boundary) {
      boundary(*next_boundary);
      *next_boundary += window;
    }
    size_t j = i;
    while (j < n && chunk.times[j] < *next_boundary) {
      ++j;
    }
    segment(i, j);
    i = j;
  }
}

// Double-buffered decode-ahead over a RequestSource.
//
// With `decode_ahead`, the cursor keeps one FillNext outstanding on its own
// background worker: Next() waits for the in-flight decode, kicks off the
// decode of the chunk after it into the other buffer, and returns. Without
// it, Next() decodes inline (bit-identical stream, no extra thread). Either
// way Next() returns nullptr at end of stream and invalidates the
// previously returned chunk. The cursor Reset()s the source on
// construction and owns the source's cursor position until destroyed.
class ChunkCursor {
 public:
  ChunkCursor(RequestSource& source, bool decode_ahead);
  ~ChunkCursor();

  ChunkCursor(const ChunkCursor&) = delete;
  ChunkCursor& operator=(const ChunkCursor&) = delete;

  const ReplayBatch* Next();

 private:
  void StartFill(int buf);

  RequestSource& source_;
  ReplayBatch bufs_[2];
  bool fill_ok_[2] = {false, false};
  int next_buf_ = 0;
  bool exhausted_ = false;
  std::future<void> inflight_;
  // ThreadPool(2) so the pool has real workers (threads <= 1 constructs a
  // workerless pool that runs Submit inline on the caller — no overlap);
  // only one worker is ever busy. Null when decode_ahead is off.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_REQUEST_SOURCE_H_
