// Deterministic random number generation.
//
// Every stochastic component in the Macaron simulator draws from an Rng
// seeded explicitly by its owner, so that a whole experiment is reproducible
// bit-for-bit from a single top-level seed. The generator is xoshiro256**,
// seeded through splitmix64 (the construction recommended by its authors).

#ifndef MACARON_SRC_COMMON_RNG_H_
#define MACARON_SRC_COMMON_RNG_H_

#include <cstdint>

namespace macaron {

// splitmix64 step; also usable as a standalone 64-bit mixer.
inline constexpr uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Precomputed Marsaglia-Tsang constants for a fixed Gamma(shape, scale).
// NextGamma re-derives these on every call; distributions that are drawn
// from millions of times (the latency fits) prepare once and sample via
// Rng::NextGammaPrepared, which consumes the identical uniform stream and
// returns bit-identical values.
struct GammaPrep {
  double scale = 1.0;
  double d = 0.0;          // boosted_shape - 1/3
  double c = 0.0;          // 1 / sqrt(9 d)
  double inv_shape = 0.0;  // 1/shape when boosted, else unused
  bool boosted = false;    // shape < 1: draw Gamma(shape+1) and correct

  static GammaPrep For(double shape, double scale);
};

// Deterministic PRNG with helpers for the distributions Macaron needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  // Raw 64 uniform bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform double in (0, 1]; safe as input to log().
  double NextDoublePositive() {
    return 1.0 - NextDouble();
  }

  // Uniform integer in [0, bound), bias-corrected. bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Exponential with the given rate (mean 1/rate).
  double NextExponential(double rate);

  // Gamma(shape, scale) via Marsaglia-Tsang; supports shape < 1.
  double NextGamma(double shape, double scale);

  // Identical draw stream and values as NextGamma(shape, scale) for the
  // prep's parameters, skipping the per-call constant setup.
  double NextGammaPrepared(const GammaPrep& prep);

  // Normal(mean, stddev) via Box-Muller (no cached spare; stays stateless).
  double NextNormal(double mean, double stddev);

  // Log-normal such that the underlying normal has the given mu/sigma.
  double NextLogNormal(double mu, double sigma);

 private:
  // Marsaglia-Tsang acceptance loop for shape >= 1, returning d * v (the
  // caller applies scale and any boost correction).
  double NextGammaCore(double d, double c);

  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_RNG_H_
