// MCTC: the chunked columnar on-disk trace format (v2, out-of-core replay).
//
// The repository's one binary trace format; CSV (trace_io.h) stays for
// interchange. Replay-shaped access wants the ReplayBatch SoA columns, and
// TB-scale traces want chunked, checksummed, seekable storage. MCTC
// stores per-chunk columns matching ReplayBatch (times/ids/sizes/ops),
// compressed per column (monotone time deltas + LEB128 varints), with a
// footer chunk directory carrying per-chunk offset/bytes/record-count/
// min-max-time/FNV-1a. Framing follows the hardened ResultStore (MRSF0001)
// discipline: magic + sizes + checksums, so truncated, torn, or foreign
// files are rejected with a clear error instead of read short.
//
// Layout:
//   header   "MCTC" + u32 LE version (2)
//   chunks   back-to-back per-chunk payloads:
//              times:  zigzag varint of the first time, then plain varint
//                      deltas (requests are time-ordered, so deltas >= 0;
//                      a delta past INT64_MAX is rejected)
//              ids:    varint per record
//              sizes:  varint per record
//              ops:    one raw byte per record
//   footer   u64 chunk_count; per chunk {u64 offset, u64 bytes, u64 count,
//            i64 min_time, i64 max_time, u64 fnv}; u64 num_requests;
//            i64 start/end time; the full TraceStats (doubles bit-cast);
//            u64 name_len + name bytes          (all integers LE)
//   trailer  u64 footer_bytes + u64 fnv(footer) + "MCTCEND2"
//
// The footer doubles as the file's identity: it pins every chunk's checksum
// and extent plus the whole-trace stats, so a 128-bit hash of the footer
// payload (ColumnarTraceIdentity) identifies the trace content without
// rereading the data.

#ifndef MACARON_SRC_TRACE_COLUMNAR_IO_H_
#define MACARON_SRC_TRACE_COLUMNAR_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/request_source.h"
#include "src/trace/trace.h"

namespace macaron {

// Streaming writer: Add() requests in time order (a violation is reported
// at the offending Add and poisons the writer), Finish() seals the file.
// Works from any source of requests — materialized traces, the synthetic
// stream generator, format converters — in O(chunk) memory.
class ColumnarTraceWriter {
 public:
  ColumnarTraceWriter(const std::string& path, const std::string& trace_name,
                      size_t chunk_records = kDefaultChunkRecords);
  ~ColumnarTraceWriter();

  ColumnarTraceWriter(const ColumnarTraceWriter&) = delete;
  ColumnarTraceWriter& operator=(const ColumnarTraceWriter&) = delete;

  void Add(const Request& r);
  // Flushes the open chunk, writes footer + trailer, closes. Returns false
  // (with `error()` set) on any failure, including earlier Add failures.
  bool Finish();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  struct ChunkMeta {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t count = 0;
    SimTime min_time = 0;
    SimTime max_time = 0;
    uint64_t fnv = 0;
  };

  void FlushChunk();
  void Fail(const std::string& message);

  std::FILE* file_ = nullptr;
  std::string name_;
  size_t chunk_records_;
  std::string error_;
  bool finished_ = false;

  std::vector<Request> pending_;
  std::string payload_;
  std::vector<ChunkMeta> directory_;
  uint64_t offset_ = 0;
  uint64_t num_requests_ = 0;
  SimTime start_time_ = 0;
  SimTime end_time_ = 0;
  SimTime last_time_ = 0;
  TraceStatsBuilder stats_;
};

// Writes a materialized trace as MCTC. False + *error on failure.
bool WriteTraceColumnar(const Trace& trace, const std::string& path,
                        std::string* error = nullptr,
                        size_t chunk_records = kDefaultChunkRecords);

// Streaming reader. Open validates the trailer, the footer checksum and the
// chunk directory, whose extents must tile the file, whose chunk times must
// not step backwards and must span the footer's start and end times. Each
// FillNext decodes (and Mix64-prehashes) one chunk in a single pass over
// its bytes that also computes the FNV-1a the directory pins, and holds the
// decoded times to the chunk's min_time and max_time. A chunk that fails
// leaves `out` empty and throws std::runtime_error naming it: "checksum
// mismatch" when its bytes do not checksum, else "decode failed" — corrupt
// data must never replay silently.
class ColumnarTraceSource : public RequestSource {
 public:
  // nullptr + *error when the file is missing, truncated, foreign, or the
  // footer does not checksum.
  static std::unique_ptr<ColumnarTraceSource> Open(const std::string& path,
                                                   std::string* error = nullptr);
  ~ColumnarTraceSource() override;

  const SourceInfo& Info() const override { return info_; }
  void Reset() override { next_chunk_ = 0; }
  bool FillNext(ReplayBatch* out) override;

 private:
  struct ChunkMeta {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t count = 0;
    SimTime min_time = 0;
    SimTime max_time = 0;
    uint64_t fnv = 0;
  };

  ColumnarTraceSource() = default;

  std::string path_;
  std::FILE* file_ = nullptr;
  SourceInfo info_;
  std::vector<ChunkMeta> directory_;
  size_t next_chunk_ = 0;
  std::string payload_;
};

// Materializes an MCTC file into an in-memory trace (the oracle path and
// format converters need the vector form). False + *error on any failure,
// including per-chunk checksum mismatches.
bool ReadTraceColumnar(const std::string& path, Trace* out, std::string* error = nullptr);

// 128-bit content identity of an MCTC file: a double hash of the footer
// payload (which pins every chunk's checksum). False + *error when the
// footer does not validate.
bool ColumnarTraceIdentity(const std::string& path, uint64_t identity[2],
                           std::string* error = nullptr);

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_COLUMNAR_IO_H_
