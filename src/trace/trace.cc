#include "src/trace/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace macaron {

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet:
      return "GET";
    case Op::kPut:
      return "PUT";
    case Op::kDelete:
      return "DELETE";
    default:
      return "UNKNOWN";
  }
}

bool Trace::IsSorted() const {
  for (size_t i = 1; i < requests.size(); ++i) {
    if (requests[i].time < requests[i - 1].time) {
      return false;
    }
  }
  return true;
}

namespace {

// Fits the Zipf exponent by least squares on log(frequency) vs log(rank),
// using objects with at least 2 accesses (singletons flatten the tail and
// are dominated by compulsory structure, not popularity skew). Objects never
// read carry a count of 0, sort last and fall under the same cut.
double FitZipfAlpha(std::vector<uint64_t> counts) {
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // Regression over the head of the distribution.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  size_t n = 0;
  for (size_t rank = 0; rank < counts.size(); ++rank) {
    if (counts[rank] < 2) {
      break;
    }
    const double x = std::log(static_cast<double>(rank + 1));
    const double y = std::log(static_cast<double>(counts[rank]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 8) {
    return 0.0;
  }
  const double nd = static_cast<double>(n);
  const double denom = nd * sxx - sx * sx;
  if (denom <= 0.0) {
    return 0.0;
  }
  const double slope = (nd * sxy - sx * sy) / denom;
  return std::max(0.0, -slope);
}

}  // namespace

void TraceStatsBuilder::AddSizeRequests(uint64_t size, uint64_t requests) {
  const uint64_t hash = Mix64(size);
  uint32_t slot = size_slots_.FindPrehashed(
      size, hash, [this](uint32_t v) { return size_counts_[v].first; });
  if (slot == FlatIndex::kEmpty) {
    MACARON_CHECK(size_counts_.size() < FlatIndex::kEmpty);
    slot = static_cast<uint32_t>(size_counts_.size());
    size_counts_.emplace_back(size, 0);
    size_slots_.EmplacePrehashed(hash, slot);
  }
  size_counts_[slot].second += requests;
}

void TraceStatsBuilder::Add(const Request& r) {
  if (!any_) {
    first_time_ = r.time;
    any_ = true;
  }
  last_time_ = r.time;
  ++s_.num_requests;
  switch (r.op) {
    case Op::kGet:
      ++s_.num_gets;
      s_.get_bytes += r.size;
      break;
    case Op::kPut:
      ++s_.num_puts;
      s_.put_bytes += r.size;
      break;
    case Op::kDelete:
      ++s_.num_deletes;
      break;
  }
  const uint64_t hash = Mix64(r.id);
  uint32_t slot =
      object_slots_.FindPrehashed(r.id, hash, [this](uint32_t v) { return rows_[v].id; });
  if (slot == FlatIndex::kEmpty) {
    if (r.op == Op::kDelete) {
      AddSizeRequests(r.size, 1);  // an id no GET or PUT has named: no row
      return;
    }
    MACARON_CHECK(rows_.size() < FlatIndex::kEmpty);
    slot = static_cast<uint32_t>(rows_.size());
    rows_.push_back({r.id, 0, r.size, 0});
    object_slots_.EmplacePrehashed(hash, slot);
    s_.unique_bytes += r.size;
    if (r.op == Op::kGet) {
      s_.unique_get_bytes += r.size;
    }
  }
  ObjectRow& row = rows_[slot];
  if (row.size != r.size) {
    AddSizeRequests(row.size, row.run);
    row.size = r.size;
    row.run = 0;
  }
  ++row.run;
  row.gets += r.op == Op::kGet ? 1 : 0;
}

TraceStats TraceStatsBuilder::Finish() const {
  TraceStats s = s_;
  s.unique_objects = rows_.size();
  s.compulsory_miss_ratio =
      s.get_bytes == 0 ? 0.0
                       : static_cast<double>(s.unique_get_bytes) / static_cast<double>(s.get_bytes);
  std::vector<uint64_t> gets(rows_.size());
  std::vector<std::pair<uint64_t, uint64_t>> by_size;
  by_size.reserve(size_counts_.size() + rows_.size());
  by_size.assign(size_counts_.begin(), size_counts_.end());
  for (size_t i = 0; i < rows_.size(); ++i) {
    gets[i] = rows_[i].gets;
    by_size.emplace_back(rows_[i].size, rows_[i].run);
  }
  s.zipf_alpha = FitZipfAlpha(std::move(gets));
  const SimDuration span = last_time_ - first_time_;
  s.mean_request_rate =
      span <= 0 ? 0.0 : static_cast<double>(s.num_requests) / DurationSeconds(span);
  if (s.num_requests > 0) {
    // The mid-th order statistic of the full size sequence, read off the
    // size-sorted (size, requests) pairs of the rows and the size table (one
    // size may head several pairs; the walk still reads what nth_element on
    // a vector of every request's size would, without that vector).
    std::sort(by_size.begin(), by_size.end());
    const uint64_t mid = s.num_requests / 2;
    uint64_t cum = 0;
    for (const auto& [size, count] : by_size) {
      cum += count;
      if (cum > mid) {
        s.median_object_bytes = size;
        break;
      }
    }
  }
  return s;
}

TraceStats ComputeStats(const Trace& trace) {
  TraceStatsBuilder b;
  for (const Request& r : trace.requests) {
    b.Add(r);
  }
  return b.Finish();
}

std::string TraceStats::Summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "reqs=%llu (get=%llu put=%llu del=%llu) get_bytes=%.2fGB put_bytes=%.2fGB "
                "dataset=%.2fGB objs=%llu compulsory=%.3f alpha=%.2f rate=%.1f/s",
                static_cast<unsigned long long>(num_requests),
                static_cast<unsigned long long>(num_gets),
                static_cast<unsigned long long>(num_puts),
                static_cast<unsigned long long>(num_deletes), static_cast<double>(get_bytes) / 1e9,
                static_cast<double>(put_bytes) / 1e9, static_cast<double>(unique_bytes) / 1e9,
                static_cast<unsigned long long>(unique_objects), compulsory_miss_ratio, zipf_alpha,
                mean_request_rate);
  return buf;
}

}  // namespace macaron
