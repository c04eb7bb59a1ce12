// Monotone-x curves: the miss ratio curve (MRC), byte miss curve (BMC),
// average latency curve (ALC), and expected cost curve are all represented
// as (x, y) samples over a shared x grid with interpolation, arithmetic, and
// knee detection.

#ifndef MACARON_SRC_COMMON_CURVE_H_
#define MACARON_SRC_COMMON_CURVE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace macaron {

// A piecewise-linear curve over strictly increasing x values.
class Curve {
 public:
  Curve() = default;
  Curve(std::vector<double> xs, std::vector<double> ys);

  bool empty() const { return xs_.empty(); }
  size_t size() const { return xs_.size(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  double x(size_t i) const { return xs_[i]; }
  double y(size_t i) const { return ys_[i]; }

  // Linear interpolation; clamps outside the x range.
  double Value(double x) const;

  // Index of the minimum y (first one on ties).
  size_t ArgMin() const;
  // Index of the first point with y <= threshold, or size() if none.
  size_t FirstBelow(double threshold) const;

  // Knee point via the maximum-curvature (max distance to the endpoint
  // chord) method of Satopaa et al., as used by the Macaron controller when
  // no cluster size can reach the latency target. Returns an index.
  size_t KneeIndex() const;

  // y := y * s.
  Curve Scaled(double s) const;
  // Pointwise sum; requires identical x grids.
  Curve Plus(const Curve& other) const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

// Maintains an exponentially decayed, request-weighted average of curves
// that share an x grid. Used by the Workload Analyzer to aggregate per-window
// MRC/BMC metrics: each window's curve enters with weight proportional to its
// request count, and previously accumulated weight decays by
// decay_per_day^(elapsed days) (paper §5.2).
class DecayedCurveAverage {
 public:
  // decay_per_day: the gamma^(1 day) factor, e.g. 0.2 by default, 1.0 = no
  // decay.
  explicit DecayedCurveAverage(double decay_per_day);

  // Adds a window curve observed over `elapsed_days` after the previous one,
  // weighted by `weight` (typically the window's request count).
  void Add(const Curve& curve, double weight, double elapsed_days);

  bool empty() const { return weighted_sum_.empty(); }
  // The current weighted average.
  Curve Average() const;
  double total_weight() const { return total_weight_; }

 private:
  double decay_per_day_;
  Curve weighted_sum_;
  double total_weight_ = 0.0;
};

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_CURVE_H_
