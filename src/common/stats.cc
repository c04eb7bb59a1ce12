#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace macaron {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double StreamingStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::stddev() const {
  return std::sqrt(variance());
}

double PercentileTracker::Quantile(double q) const {
  MACARON_CHECK(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  // Order statistics are independent of input order, so selecting from a
  // local copy returns exactly what the old lazy in-place sort did — without
  // mutating shared state under a const read.
  std::vector<double> tmp = samples_;
  const double pos = q * static_cast<double>(tmp.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, tmp.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(tmp.begin(), tmp.begin() + static_cast<ptrdiff_t>(lo), tmp.end());
  const double lo_value = tmp[lo];
  double hi_value = lo_value;
  if (hi > lo) {
    // After nth_element everything past `lo` is >= tmp[lo]; the (lo+1)-th
    // order statistic is the minimum of that tail.
    hi_value = *std::min_element(tmp.begin() + static_cast<ptrdiff_t>(lo) + 1, tmp.end());
  }
  return lo_value * (1.0 - frac) + hi_value * frac;
}

void PercentileTracker::Append(PercentileTracker&& other) {
  if (samples_.empty()) {
    samples_.swap(other.samples_);
  } else {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }
  std::vector<double>().swap(other.samples_);
}

double PercentileTracker::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

}  // namespace macaron
