#include "src/common/curve.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace macaron {

Curve::Curve(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  MACARON_CHECK(xs_.size() == ys_.size());
  for (size_t i = 1; i < xs_.size(); ++i) {
    MACARON_CHECK(xs_[i] > xs_[i - 1]);
  }
}

double Curve::Value(double x) const {
  MACARON_CHECK(!xs_.empty());
  if (x <= xs_.front()) {
    return ys_.front();
  }
  if (x >= xs_.back()) {
    return ys_.back();
  }
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const size_t hi = static_cast<size_t>(it - xs_.begin());
  const size_t lo = hi - 1;
  const double frac = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] * (1.0 - frac) + ys_[hi] * frac;
}

size_t Curve::ArgMin() const {
  MACARON_CHECK(!ys_.empty());
  return static_cast<size_t>(std::min_element(ys_.begin(), ys_.end()) - ys_.begin());
}

size_t Curve::FirstBelow(double threshold) const {
  for (size_t i = 0; i < ys_.size(); ++i) {
    if (ys_[i] <= threshold) {
      return i;
    }
  }
  return ys_.size();
}

size_t Curve::KneeIndex() const {
  MACARON_CHECK(size() >= 2);
  // Distance of each point from the chord connecting the endpoints, after
  // normalizing both axes to [0,1] so the result is scale-invariant.
  const double x0 = xs_.front();
  const double x1 = xs_.back();
  const double y0 = ys_.front();
  const double y1 = ys_.back();
  const double dx = x1 - x0;
  const double dy = y1 - y0;
  if (dx == 0.0) {
    return 0;
  }
  size_t best = 0;
  double best_dist = -1.0;
  for (size_t i = 0; i < size(); ++i) {
    const double nx = (xs_[i] - x0) / dx;
    const double ny = dy == 0.0 ? 0.0 : (ys_[i] - y0) / dy;
    // Distance from the line y = x in normalized space.
    const double dist = std::abs(nx - ny);
    if (dist > best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

Curve Curve::Scaled(double s) const {
  Curve out = *this;
  for (double& y : out.ys_) {
    y *= s;
  }
  return out;
}

Curve Curve::Plus(const Curve& other) const {
  MACARON_CHECK(xs_ == other.xs_);
  Curve out = *this;
  for (size_t i = 0; i < out.ys_.size(); ++i) {
    out.ys_[i] += other.ys_[i];
  }
  return out;
}

DecayedCurveAverage::DecayedCurveAverage(double decay_per_day)
    : decay_per_day_(decay_per_day) {
  MACARON_CHECK(decay_per_day > 0.0 && decay_per_day <= 1.0);
}

void DecayedCurveAverage::Add(const Curve& curve, double weight, double elapsed_days) {
  MACARON_CHECK(weight >= 0.0);
  MACARON_CHECK(elapsed_days >= 0.0);
  const double decay = std::pow(decay_per_day_, elapsed_days);
  if (weighted_sum_.empty()) {
    weighted_sum_ = curve.Scaled(weight);
    total_weight_ = weight;
    return;
  }
  weighted_sum_ = weighted_sum_.Scaled(decay).Plus(curve.Scaled(weight));
  total_weight_ = total_weight_ * decay + weight;
}

Curve DecayedCurveAverage::Average() const {
  MACARON_CHECK(!weighted_sum_.empty());
  if (total_weight_ <= 0.0) {
    return weighted_sum_;
  }
  return weighted_sum_.Scaled(1.0 / total_weight_);
}

}  // namespace macaron
