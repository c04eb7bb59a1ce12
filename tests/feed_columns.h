// Test helper: feeds Request vectors to a mini-sim bank or a
// WorkloadAnalyzer through their one observe path, ProcessColumns, as
// chunks carrying the ingest hash (AppendRequests), the way the engines
// feed them.

#ifndef MACARON_TESTS_FEED_COLUMNS_H_
#define MACARON_TESTS_FEED_COLUMNS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/cache/replay_batch.h"
#include "src/trace/request_source.h"

namespace macaron {

// Feeds `reqs` to `sink` as chunks of at most `chunk_rows` rows; by default
// the whole vector is one chunk.
template <typename Sink>
void FeedColumns(Sink& sink, const std::vector<Request>& reqs, size_t chunk_rows = SIZE_MAX) {
  ReplayBatch chunk;
  size_t i = 0;
  while (i < reqs.size()) {
    const size_t n = std::min(chunk_rows, reqs.size() - i);
    chunk.Clear();
    AppendRequests(reqs.data() + i, n, &chunk);
    sink.ProcessColumns(chunk, 0, n);
    i += n;
  }
}

}  // namespace macaron

#endif  // MACARON_TESTS_FEED_COLUMNS_H_
