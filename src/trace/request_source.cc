#include "src/trace/request_source.h"

#include <algorithm>

#include "src/common/hash.h"

namespace macaron {

SourceInfo MakeSourceInfo(const Trace& trace) { return MakeSourceInfo(trace, ComputeStats(trace)); }

SourceInfo MakeSourceInfo(const Trace& trace, const TraceStats& stats) {
  SourceInfo info;
  info.name = trace.name;
  info.num_requests = trace.size();
  info.start_time = trace.start_time();
  info.end_time = trace.end_time();
  info.stats = stats;
  return info;
}

TraceSource::TraceSource(const Trace& trace, size_t chunk_records)
    : TraceSource(trace, ComputeStats(trace), chunk_records) {}

TraceSource::TraceSource(const Trace& trace, const TraceStats& stats, size_t chunk_records)
    : trace_(trace),
      info_(MakeSourceInfo(trace, stats)),
      chunk_records_(std::max<size_t>(chunk_records, 1)) {}

bool TraceSource::FillNext(ReplayBatch* out) {
  out->Clear();
  const std::vector<Request>& reqs = trace_.requests;
  if (pos_ >= reqs.size()) {
    return false;
  }
  const size_t n = std::min(chunk_records_, reqs.size() - pos_);
  out->Reserve(n);
  AppendRequests(reqs.data() + pos_, n, out);
  pos_ += n;
  return true;
}

void AppendRequests(const Request* reqs, size_t n, ReplayBatch* out) {
  for (size_t i = 0; i < n; ++i) {
    out->PushBack(reqs[i], Mix64(reqs[i].id));
  }
}

ReplayBatch ToChunk(const std::vector<Request>& reqs) {
  ReplayBatch chunk;
  chunk.Reserve(reqs.size());
  AppendRequests(reqs.data(), reqs.size(), &chunk);
  return chunk;
}

ChunkCursor::ChunkCursor(RequestSource& source, bool decode_ahead) : source_(source) {
  source_.Reset();
  if (decode_ahead) {
    pool_ = std::make_unique<ThreadPool>(2);
    StartFill(0);
  }
}

ChunkCursor::~ChunkCursor() {
  // Let an in-flight decode finish before the buffers go away (~ThreadPool
  // also drains, but the future may hold the task's exception).
  if (inflight_.valid()) {
    try {
      inflight_.get();
    } catch (...) {
      // A failing decode during teardown has nowhere to report.
    }
  }
}

void ChunkCursor::StartFill(int buf) {
  inflight_ = pool_->Submit([this, buf] { fill_ok_[buf] = source_.FillNext(&bufs_[buf]); });
}

const ReplayBatch* ChunkCursor::Next() {
  if (exhausted_) {
    return nullptr;
  }
  const int cur = next_buf_;
  if (pool_ != nullptr) {
    inflight_.get();  // decode of bufs_[cur] (rethrows decode errors)
  } else {
    fill_ok_[cur] = source_.FillNext(&bufs_[cur]);
  }
  if (!fill_ok_[cur]) {
    exhausted_ = true;
    return nullptr;
  }
  next_buf_ = 1 - cur;
  if (pool_ != nullptr) {
    StartFill(next_buf_);
  }
  return &bufs_[cur];
}

}  // namespace macaron
