#include "src/trace/analysis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/check.h"

namespace macaron {

namespace {

size_t NumBins(const Trace& trace, SimDuration bin) {
  MACARON_CHECK(bin > 0);
  if (trace.empty()) {
    return 0;
  }
  return static_cast<size_t>(trace.end_time() / bin) + 1;
}

// Sizing heuristic for the id sets of the analysis passes below: distinct
// ids are typically a small fraction of requests; reserving up front avoids
// rehashing the table several times over a multi-million-request trace.
size_t ExpectedObjects(const Trace& trace) { return trace.size() / 4 + 16; }

}  // namespace

std::vector<uint64_t> RequestRateSeries(const Trace& trace, SimDuration bin) {
  std::vector<uint64_t> series(NumBins(trace, bin), 0);
  for (const Request& r : trace.requests) {
    series[static_cast<size_t>(r.time / bin)]++;
  }
  return series;
}

std::vector<uint64_t> WorkingSetGrowth(const Trace& trace, SimDuration bin) {
  std::vector<uint64_t> series(NumBins(trace, bin), 0);
  std::unordered_set<ObjectId> seen;
  seen.reserve(ExpectedObjects(trace));
  uint64_t unique_bytes = 0;
  size_t current_bin = 0;
  for (const Request& r : trace.requests) {
    const size_t b = static_cast<size_t>(r.time / bin);
    while (current_bin < b) {
      series[current_bin++] = unique_bytes;
    }
    if (r.op != Op::kDelete && seen.insert(r.id).second) {
      unique_bytes += r.size;
    }
  }
  while (current_bin < series.size()) {
    series[current_bin++] = unique_bytes;
  }
  return series;
}

std::vector<uint64_t> ReuseIntervalHistogram(const Trace& trace,
                                             const std::vector<SimDuration>& bounds) {
  MACARON_CHECK(std::is_sorted(bounds.begin(), bounds.end()));
  std::vector<uint64_t> counts(bounds.size() + 1, 0);
  std::unordered_map<ObjectId, SimTime> last_access;
  last_access.reserve(ExpectedObjects(trace));
  for (const Request& r : trace.requests) {
    if (r.op == Op::kDelete) {
      last_access.erase(r.id);
      continue;
    }
    const auto it = last_access.find(r.id);
    if (r.op == Op::kGet && it != last_access.end()) {
      const SimDuration gap = r.time - it->second;
      const size_t idx = static_cast<size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), gap) - bounds.begin());
      counts[idx]++;
    }
    last_access[r.id] = r.time;
  }
  return counts;
}

double WriteOnlyByteFraction(const Trace& trace) {
  std::unordered_map<ObjectId, uint64_t> written;  // id -> size, erased on read
  std::unordered_set<ObjectId> read;
  written.reserve(ExpectedObjects(trace));
  read.reserve(ExpectedObjects(trace));
  uint64_t written_bytes = 0;
  for (const Request& r : trace.requests) {
    switch (r.op) {
      case Op::kPut:
        if (!read.contains(r.id) && written.try_emplace(r.id, r.size).second) {
          written_bytes += r.size;
        }
        break;
      case Op::kGet:
        read.insert(r.id);
        break;
      case Op::kDelete:
        break;
    }
  }
  if (written_bytes == 0) {
    return 0.0;
  }
  uint64_t dark = 0;
  for (const auto& [id, size] : written) {
    if (!read.contains(id)) {
      dark += size;
    }
  }
  return static_cast<double>(dark) / static_cast<double>(written_bytes);
}

double BurstinessRatio(const Trace& trace, SimDuration bin) {
  const std::vector<uint64_t> series = RequestRateSeries(trace, bin);
  if (series.empty()) {
    return 0.0;
  }
  uint64_t peak = 0;
  uint64_t total = 0;
  for (uint64_t c : series) {
    peak = std::max(peak, c);
    total += c;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(series.size());
  return mean <= 0.0 ? 0.0 : static_cast<double>(peak) / mean;
}

}  // namespace macaron
