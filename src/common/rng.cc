#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace macaron {

uint64_t Rng::NextBounded(uint64_t bound) {
  MACARON_CHECK(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextExponential(double rate) {
  MACARON_CHECK(rate > 0);
  return -std::log(NextDoublePositive()) / rate;
}

GammaPrep GammaPrep::For(double shape, double scale) {
  MACARON_CHECK(shape > 0 && scale > 0);
  GammaPrep p;
  p.scale = scale;
  p.boosted = shape < 1.0;
  const double boosted_shape = p.boosted ? shape + 1.0 : shape;
  p.d = boosted_shape - 1.0 / 3.0;
  p.c = 1.0 / std::sqrt(9.0 * p.d);
  p.inv_shape = p.boosted ? 1.0 / shape : 0.0;
  return p;
}

double Rng::NextGammaCore(double d, double c) {
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = NextNormal(0.0, 1.0);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = NextDoublePositive();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::NextGamma(double shape, double scale) {
  MACARON_CHECK(shape > 0 && scale > 0);
  if (shape < 1.0) {
    // Boost to shape+1 and apply the standard correction.
    const double u = NextDoublePositive();
    return NextGamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  return NextGammaCore(d, c) * scale;
}

double Rng::NextGammaPrepared(const GammaPrep& prep) {
  if (prep.boosted) {
    // Same consumption order as NextGamma's shape < 1 path: the boost
    // correction's uniform is drawn before the boosted Gamma.
    const double u = NextDoublePositive();
    return NextGammaCore(prep.d, prep.c) * prep.scale * std::pow(u, prep.inv_shape);
  }
  return NextGammaCore(prep.d, prep.c) * prep.scale;
}

double Rng::NextNormal(double mean, double stddev) {
  const double u1 = NextDoublePositive();
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextNormal(mu, sigma));
}

}  // namespace macaron
