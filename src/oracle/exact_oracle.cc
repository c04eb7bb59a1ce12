#include "src/oracle/exact_oracle.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/obs/decision_trace.h"

namespace macaron {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Dollar tolerance for the crossover test: guards against last-ulp summation
// differences between the meter total and the remote-only accumulator when
// the optimum never caches (the two are then mathematically equal).
constexpr double kCrossoverEpsUsd = 1e-9;

}  // namespace

ExactOracleResult RunExactOracle(const Trace& trace, const PriceBook& prices,
                                 const ExactOracleOptions& options) {
  ExactOracleResult result;
  const size_t n = trace.size();
  if (n == 0) {
    return result;
  }
  MACARON_CHECK(options.window > 0);

  const PriceSchedule sched(prices, AlignShocksToWindows(options.shocks, options.window));

  // --- Pass 1: per-object event chains, CSR layout in first-appearance
  // order (deterministic — the index is only probed, never iterated). The
  // index reads each object number's key from first_ids.
  FlatIndex index;
  std::vector<ObjectId> first_ids;  // object number -> id
  const auto id_of = [&first_ids](uint32_t o) { return first_ids[o]; };
  std::vector<uint32_t> obj_of(n);
  for (size_t i = 0; i < n; ++i) {
    const ObjectId id = trace.requests[i].id;
    const uint64_t hash = Mix64(id);
    uint32_t o = index.FindPrehashed(id, hash, id_of);
    if (o == FlatIndex::kEmpty) {
      MACARON_CHECK(first_ids.size() < FlatIndex::kEmpty);
      o = static_cast<uint32_t>(first_ids.size());
      first_ids.push_back(id);
      index.EmplacePrehashed(hash, o);
    }
    obj_of[i] = o;
  }
  const size_t num_objects = first_ids.size();
  std::vector<uint32_t> counts(num_objects, 0);
  for (size_t i = 0; i < n; ++i) {
    ++counts[obj_of[i]];
  }
  std::vector<uint32_t> offsets(num_objects + 1, 0);
  for (size_t o = 0; o < num_objects; ++o) {
    offsets[o + 1] = offsets[o] + counts[o];
  }
  std::vector<uint32_t> chain(n);  // event indices, grouped by object, trace order
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      chain[cursor[obj_of[i]]++] = static_cast<uint32_t>(i);
    }
  }

  // --- Pass 2: per-object two-state DP.
  //
  // State after event j: S = a copy is resident through the following gap,
  // N = it is not. A[j] / B[j] are the cheapest costs of serving the chain
  // prefix through j ending in S / N; gap storage is charged on arrival at
  // the next event (piecewise-exact under the schedule). choice_s / choice_n
  // record the arg-min incoming state for traceback; ties prefer the stored
  // (hit) path so the schedule is deterministic.
  std::vector<uint8_t> choice_s(n), choice_n(n);
  std::vector<uint8_t> hit(n, 0), keep(n, 0), admit(n, 0);
  double dp_total = 0.0;
  std::vector<uint8_t> object_cached(num_objects, 0);

  for (size_t o = 0; o < num_objects; ++o) {
    const uint32_t begin = offsets[o];
    const uint32_t end = offsets[o + 1];
    double a_prev = kInf;  // outgoing stored
    double b_prev = kInf;  // outgoing not stored
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t j = chain[k];
      const Request& r = trace.requests[j];
      const PriceBook& book = sched.At(r.time);
      double in_s;  // arrived with the gap before j stored
      double in_n;
      if (k == begin) {
        in_s = kInf;  // nothing to store before the first event
        in_n = 0.0;
      } else {
        const Request& prev = trace.requests[chain[k - 1]];
        in_s = a_prev + sched.StorageCostOver(prev.size, prev.time, r.time);
        in_n = b_prev;
      }
      double a_new = kInf;
      double b_new = kInf;
      switch (r.op) {
        case Op::kGet: {
          const double serve_s = in_s + book.GetCost(1);  // hit
          const double serve_n = in_n + book.GetCost(1) + book.EgressCost(r.size);
          // Staying stored after a hit is free; admitting a miss pays a PUT.
          const double s_from_s = serve_s;
          const double s_from_n = serve_n + book.PutCost(1);
          choice_s[j] = s_from_s <= s_from_n ? 1 : 0;
          a_new = std::min(s_from_s, s_from_n);
          choice_n[j] = serve_s <= serve_n ? 1 : 0;
          b_new = std::min(serve_s, serve_n);
          break;
        }
        case Op::kPut: {
          // Write-through: any prior copy is stale; keeping the new version
          // resident costs one PUT admission regardless of incoming state.
          choice_s[j] = in_s <= in_n ? 1 : 0;
          a_new = std::min(in_s, in_n) + book.PutCost(1);
          choice_n[j] = in_s <= in_n ? 1 : 0;
          b_new = std::min(in_s, in_n);
          break;
        }
        case Op::kDelete: {
          // The object ceases to exist; a resident copy is discarded for
          // free (engines charge no delete operations).
          choice_s[j] = choice_n[j] = in_s <= in_n ? 1 : 0;
          a_new = kInf;
          b_new = std::min(in_s, in_n);
          break;
        }
      }
      a_prev = a_new;
      b_prev = b_new;
    }
    // Storing past the final event is never useful: the optimum ends N.
    dp_total += b_prev;
    // Traceback from state N at the last event.
    uint8_t out_stored = 0;
    for (uint32_t k = end; k-- > begin;) {
      const uint32_t j = chain[k];
      const Request& r = trace.requests[j];
      const uint8_t in_stored = out_stored ? choice_s[j] : choice_n[j];
      keep[j] = out_stored;
      if (r.op == Op::kGet) {
        hit[j] = in_stored;
        admit[j] = (!in_stored && out_stored) ? 1 : 0;
      } else if (r.op == Op::kPut) {
        admit[j] = out_stored;
      }
      if (admit[j]) {
        object_cached[o] = 1;
      }
      out_stored = in_stored;
    }
  }

  // --- Pass 3: global forward replay in trace order. Produces the
  // authoritative CostMeter, counters, latency samples, and the cumulative
  // cost timeline at window boundaries (boundary cost excludes events at
  // exactly the boundary time, matching the engines' WindowBoundary order).
  Rng rng(options.seed);
  std::vector<uint64_t> contrib(num_objects, 0);
  uint64_t stored_bytes = 0;
  double byte_time = 0.0;
  double remote_only = 0.0;
  SimTime cursor = trace.start_time();
  SimTime next_boundary = options.window;
  while (next_boundary <= cursor) {
    result.window_cost_timeline.emplace_back(next_boundary, 0.0);
    next_boundary += options.window;
  }

  const auto accrue_to = [&](SimTime to) {
    if (to > cursor) {
      if (stored_bytes > 0) {
        result.costs.Add(CostCategory::kCapacity,
                         sched.StorageCostOver(stored_bytes, cursor, to));
        byte_time += static_cast<double>(stored_bytes) * static_cast<double>(to - cursor);
      }
      cursor = to;
    }
  };

  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace.requests[i];
    while (next_boundary <= r.time) {
      accrue_to(next_boundary);
      result.window_cost_timeline.emplace_back(next_boundary, result.costs.Total());
      next_boundary += options.window;
    }
    accrue_to(r.time);
    const PriceBook& book = sched.At(r.time);
    switch (r.op) {
      case Op::kGet: {
        result.costs.Add(CostCategory::kOperation, book.GetCost(1));
        if (hit[i]) {
          ++result.osc_hits;
          if (options.latency != nullptr) {
            result.latency_ms.Add(options.latency->SampleMs(DataSource::kOsc, r.size, rng));
          }
        } else {
          ++result.remote_fetches;
          result.egress_bytes += r.size;
          result.costs.Add(CostCategory::kEgress, book.EgressCost(r.size));
          if (options.latency != nullptr) {
            result.latency_ms.Add(
                options.latency->SampleMs(DataSource::kRemoteLake, r.size, rng));
          }
        }
        remote_only += book.EgressCost(r.size) + book.GetCost(1);
        break;
      }
      case Op::kPut:
      case Op::kDelete:
        break;
    }
    if (admit[i]) {
      ++result.admits;
      result.costs.Add(CostCategory::kOperation, book.PutCost(1));
    }
    const uint64_t now_contrib = keep[i] ? r.size : 0;
    const uint32_t o = obj_of[i];
    stored_bytes += now_contrib;
    stored_bytes -= contrib[o];
    contrib[o] = now_contrib;
  }
  MACARON_CHECK(stored_bytes == 0);  // the optimum never stores past the last event
  result.window_cost_timeline.emplace_back(trace.end_time(), result.costs.Total());

  result.dp_total_usd = dp_total;
  result.remote_only_usd = remote_only;
  result.caching_pays = remote_only - result.costs.Total() > kCrossoverEpsUsd;
  result.objects_total = num_objects;
  for (size_t o = 0; o < num_objects; ++o) {
    result.objects_cached += object_cached[o];
  }
  const SimDuration span = trace.duration();
  result.mean_stored_bytes = span <= 0 ? 0.0 : byte_time / static_cast<double>(span);
  return result;
}

double OracleCostAt(const ExactOracleResult& oracle, SimTime t) {
  const auto& tl = oracle.window_cost_timeline;
  const auto it = std::upper_bound(
      tl.begin(), tl.end(), t,
      [](SimTime lhs, const std::pair<SimTime, double>& e) { return lhs < e.first; });
  return it == tl.begin() ? 0.0 : std::prev(it)->second;
}

void AnnotateRegret(obs::DecisionTrace* trace, const ExactOracleResult& oracle) {
  if (trace == nullptr) {
    return;
  }
  for (obs::DecisionRecord& rec : trace->mutable_records()) {
    rec.regret_usd = rec.realized_cost_usd - OracleCostAt(oracle, rec.time);
  }
}

}  // namespace macaron
