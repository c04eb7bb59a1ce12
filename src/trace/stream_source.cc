#include "src/trace/stream_source.h"

#include <algorithm>
#include <cmath>

#include "src/common/hash.h"

namespace macaron {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

SyntheticStreamSource::SyntheticStreamSource(const StreamProfile& profile, size_t chunk_records)
    : profile_(profile),
      chunk_records_(std::max<size_t>(chunk_records, 1)),
      zipf_(std::max<uint64_t>(profile.population, 1), profile.zipf_alpha),
      rng_(profile.seed) {
  profile_.population = std::max<uint64_t>(profile_.population, 1);
  uint64_t sm = profile_.seed ^ 0x5717a1f3c0ffee00ull;
  id_salt_ = SplitMix64(sm);
  size_salt_a_ = SplitMix64(sm);
  size_salt_b_ = SplitMix64(sm);
  // Appended to the salt chain, so the earlier salts — and with them every
  // pre-existing profile's stream — are untouched.
  flash_salt_ = SplitMix64(sm);
  profile_.flash_population = std::max<uint64_t>(profile_.flash_population, 1);
  drift_step_ = std::max<uint64_t>(profile_.population / 16, 1);
  // Lognormal with the configured *mean*: E[X] = exp(mu + sigma^2/2).
  const double sigma = profile_.object_size_sigma;
  size_mu_ = std::log(static_cast<double>(std::max<uint64_t>(profile_.mean_object_bytes, 1))) -
             sigma * sigma / 2.0;

  info_.name = profile_.name;
  info_.num_requests = profile_.num_requests;
  info_.start_time = 0;
  info_.end_time = profile_.num_requests > 0 ? TimeAt(profile_.num_requests - 1) : 0;
  // Exact stats via a streaming pre-pass: O(population) memory, not
  // O(num_requests). The engines' Setup derives sampling ratios, mini-cache
  // grids, and TTL horizons from these, so they must be the stats of the
  // stream actually delivered — not an analytic approximation.
  TraceStatsBuilder builder;
  Reset();
  for (uint64_t i = 0; i < profile_.num_requests; ++i) {
    builder.Add(GenerateNext());
  }
  info_.stats = builder.Finish();
  Reset();
}

void SyntheticStreamSource::Reset() {
  rng_ = Rng(profile_.seed);
  pos_ = 0;
}

SimTime SyntheticStreamSource::TimeAt(uint64_t i) const {
  if (profile_.num_requests <= 1 || profile_.duration <= 0) {
    return 0;
  }
  // Evenly paced: t_i = i * duration / (n - 1), exact in 128-bit.
  const unsigned __int128 num =
      static_cast<unsigned __int128>(i) * static_cast<uint64_t>(profile_.duration);
  return static_cast<SimTime>(num / (profile_.num_requests - 1));
}

uint64_t SyntheticStreamSource::SizeForId(ObjectId id) const {
  if (profile_.object_size_sigma <= 0.0) {
    return std::max<uint64_t>(profile_.mean_object_bytes, 1);
  }
  // Stateless per-id lognormal: two mixed uniforms -> Box-Muller normal.
  // The same id always yields the same size, with no per-object table.
  const double u1 =
      static_cast<double>((Mix64(id ^ size_salt_a_) >> 11) + 1) * 0x1.0p-53;  // (0, 1]
  const double u2 = static_cast<double>(Mix64(id ^ size_salt_b_) >> 11) * 0x1.0p-53;  // [0, 1)
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  const double v = std::exp(size_mu_ + profile_.object_size_sigma * z);
  if (!(v >= 1.0)) {
    return 1;
  }
  // kMaxRequestBytes rounds up to 2^56 as a double, and every double below
  // 2^56 truncates to at most kMaxRequestBytes.
  if (v >= static_cast<double>(kMaxRequestBytes)) {
    return kMaxRequestBytes;
  }
  return static_cast<uint64_t>(v);
}

Request SyntheticStreamSource::GenerateNext() {
  Request r;
  r.time = TimeAt(pos_);
  ++pos_;
  const double u = rng_.NextDouble();
  // Flash crowd: inside the burst window a coin decides whether this
  // request joins the stampede onto the tiny flash set. The extra draws
  // happen only for profiles that enable the burst, so disabled profiles
  // keep their historical RNG stream request for request.
  const bool in_flash_window = profile_.flash_duration > 0 &&
                               r.time >= profile_.flash_at &&
                               r.time < profile_.flash_at + profile_.flash_duration;
  if (in_flash_window && rng_.NextDouble() < profile_.flash_fraction) {
    const uint64_t slot = rng_.NextBounded(profile_.flash_population);
    r.id = Mix64(slot ^ flash_salt_);
  } else {
    const uint64_t rank = zipf_.Sample(rng_);
    // Drift rotates the rank -> slot mapping on a fixed cadence, so the hot
    // head of the Zipf distribution lands on different objects over time.
    const uint64_t rotation =
        profile_.drift_period > 0
            ? static_cast<uint64_t>(r.time / profile_.drift_period) * drift_step_
            : 0;
    const uint64_t slot = (rank + rotation) % profile_.population;
    r.id = Mix64(slot ^ id_salt_);
  }
  r.size = SizeForId(r.id);
  if (u < profile_.delete_fraction) {
    r.op = Op::kDelete;
  } else if (u < profile_.delete_fraction + profile_.put_fraction) {
    r.op = Op::kPut;
  } else {
    r.op = Op::kGet;
  }
  return r;
}

bool SyntheticStreamSource::FillNext(ReplayBatch* out) {
  out->Clear();
  if (pos_ >= profile_.num_requests) {
    return false;
  }
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(chunk_records_, profile_.num_requests - pos_));
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Request r = GenerateNext();
    out->PushBack(r, Mix64(r.id));
  }
  return true;
}

}  // namespace macaron
