// Statistics accumulators used across the simulator: streaming moments and
// percentile tracking.

#ifndef MACARON_SRC_COMMON_STATS_H_
#define MACARON_SRC_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace macaron {

// Streaming mean/variance/min/max (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return count_ == 0 ? 0.0 : mean_ * static_cast<double>(count_); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile estimation over all observed samples. Stores every sample;
// intended for per-run latency distributions (hundreds of thousands of
// points), not unbounded streams. Quantile is genuinely const (it selects
// order statistics from a local copy rather than lazily sorting in place),
// so concurrent readers of a shared tracker — e.g. sweep collectors
// formatting the same memoized result from several threads — are safe, and
// samples() always returns insertion order.
class PercentileTracker {
 public:
  void Add(double x) { samples_.push_back(x); }
  // Sizes the buffer for `n` samples, so a caller that knows its sample
  // count up front never grows the buffer by doubling.
  void Reserve(size_t n) { samples_.reserve(n); }
  // Appends `other`'s samples after this tracker's, in order, and releases
  // `other`'s buffer. An empty tracker takes the buffer outright instead of
  // copying it.
  void Append(PercentileTracker&& other);

  uint64_t count() const { return samples_.size(); }
  // Returns the q-quantile (q in [0,1]) by linear interpolation; 0 if empty.
  double Quantile(double q) const;
  double Mean() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_STATS_H_
