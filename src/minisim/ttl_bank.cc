#include "src/minisim/ttl_bank.h"

#include <algorithm>

#include "src/common/check.h"

namespace macaron {

std::vector<SimDuration> StandardTtlGrid(SimDuration max_ttl) {
  std::vector<SimDuration> grid;
  grid.push_back(1 * kHour);
  if (max_ttl >= 6 * kHour) {
    grid.push_back(6 * kHour);
  }
  for (SimDuration t = 12 * kHour; t <= max_ttl; t += 12 * kHour) {
    grid.push_back(t);
  }
  if (grid.back() < max_ttl) {
    grid.push_back(max_ttl);
  }
  return grid;
}

TtlBank::TtlBank(std::vector<SimDuration> ttl_grid, double ratio, uint64_t salt)
    : grid_(std::move(ttl_grid)),
      pipeline_(
          ratio, salt, [this](const ReplayBatch&) { return grid_.size(); },
          [this](const ReplayBatch& batch, size_t i) { ReplayGridPoint(batch, i); }) {
  MACARON_CHECK(!grid_.empty());
  MACARON_CHECK(std::is_sorted(grid_.begin(), grid_.end()));
  entries_.reserve(grid_.size());
  for (SimDuration ttl : grid_) {
    entries_.push_back(Entry{TtlCache(ttl), 0, 0, 0.0, 0});
  }
}

void TtlBank::Advance(Entry& e, SimTime now) {
  if (now > e.last_update) {
    // Integrate resident bytes over [last_update, now). Expire(now) runs
    // first, so an entry that expired inside the interval counts as absent
    // for all of it: the integral slightly underestimates — acceptable at
    // window granularity, and symmetric across TTLs.
    e.cache.Expire(now);
    e.byte_time += static_cast<double>(e.cache.used_bytes()) *
                   static_cast<double>(now - e.last_update);
    e.last_update = now;
  }
}

void TtlBank::ReplayGridPoint(const ReplayBatch& batch, size_t i) {
  Entry& e = entries_[i];
  const size_t n = batch.size();
  for (size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) {
      e.cache.PrefetchPrehashed(batch.hashes[k + kPrefetchAhead]);
    }
    const ObjectId id = batch.ids[k];
    const uint64_t hash = batch.hashes[k];
    const SimTime time = batch.times[k];
    Advance(e, time);
    switch (batch.ops[k]) {
      case Op::kGet:
        if (!e.cache.GetPrehashed(id, hash, time)) {
          ++e.misses;
          e.missed_bytes += batch.sizes[k];
          e.cache.PutPrehashed(id, hash, batch.sizes[k], time);
        }
        break;
      case Op::kPut:
        e.cache.PutPrehashed(id, hash, batch.sizes[k], time);
        break;
      case Op::kDelete:
        e.cache.ErasePrehashed(id, hash);
        break;
    }
  }
}

size_t TtlBank::allocated_nodes() const {
  size_t total = 0;
  for (const Entry& e : entries_) {
    total += e.cache.allocated_nodes();
  }
  return total;
}

TtlWindowCurves TtlBank::EndWindow(SimDuration window) {
  MACARON_CHECK(window > 0);
  // Replays and joins everything buffered (the replay tasks write the entry
  // counters read below); the same realized-admission-rate normalization
  // as MrcBank::EndWindow, one rate for the MRC, BMC and capacity curve.
  const SampledBatchPipeline::Window counts = pipeline_.EndWindow();
  TtlWindowCurves out;
  std::vector<double> xs;
  std::vector<double> mrc_ys;
  std::vector<double> bmc_ys;
  std::vector<double> cap_ys;
  const SimTime window_end = window_start_ + window;
  const double sampled_gets = static_cast<double>(counts.sampled_gets);
  for (size_t i = 0; i < grid_.size(); ++i) {
    Entry& e = entries_[i];
    Advance(e, window_end);
    xs.push_back(static_cast<double>(grid_[i]));
    const double mr =
        sampled_gets <= 0.0 ? 0.0 : static_cast<double>(e.misses) / sampled_gets;
    mrc_ys.push_back(std::min(1.0, mr));
    bmc_ys.push_back(static_cast<double>(e.missed_bytes) / counts.realized_rate);
    cap_ys.push_back(e.byte_time / static_cast<double>(window) / counts.realized_rate);
    e.misses = 0;
    e.missed_bytes = 0;
    e.byte_time = 0.0;
  }
  out.mrc = Curve(xs, std::move(mrc_ys));
  out.bmc = Curve(xs, std::move(bmc_ys));
  out.capacity = Curve(std::move(xs), std::move(cap_ys));
  out.sampled_gets = counts.sampled_gets;
  out.window_requests = counts.requests;
  window_start_ = window_end;
  return out;
}

}  // namespace macaron
