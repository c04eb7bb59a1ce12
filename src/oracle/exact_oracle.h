// Dollar-exact offline optimum for an elastic cloud cache.
//
// The paper's Oracular (§5.4) is this optimum with operation costs taken as
// zero: run it on `prices.OpFree()` (the sweep's kOracle job does). Without
// request prices or price shocks, the gaps between an object's consecutive
// events decouple, and the choice per gap is §5.4's keep rule: store
// through the gap iff it ends in a GET and is no longer than the
// storage/egress break-even (ties store). A gap that ends in a PUT or a
// DELETE is never stored, since the PUT replaces the copy and the DELETE
// discards it.
//
// Following the "Caching for Dollars" formulation, the exact optimum
// decomposes per object because the cache is elastic (no capacity
// coupling between objects): for each object, a two-state dynamic program
// over its access chain — state "stored" vs "not stored" after each event
// — charges egress, storage (piecewise-exact under a PriceSchedule), and
// GET/PUT operation costs, and the per-object optima sum to the global
// optimum. A brute-force enumerator over all per-gap keep choices
// (tests/oracle_test.cc) pins the DP exact on small traces.
//
// The result carries the "never cache" crossover: the cost of serving
// every GET remotely. Tenants whose exact optimum equals that bound should
// not deploy a cache at all (caching_pays == false).

#ifndef MACARON_SRC_ORACLE_EXACT_ORACLE_H_
#define MACARON_SRC_ORACLE_EXACT_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cloudsim/latency.h"
#include "src/common/stats.h"
#include "src/pricing/cost_meter.h"
#include "src/pricing/price_book.h"
#include "src/pricing/price_schedule.h"
#include "src/trace/trace.h"

namespace macaron {

namespace obs {
class DecisionTrace;
}  // namespace obs

struct ExactOracleOptions {
  // Window cadence: price shocks are aligned to the first multiple of
  // `window` at or after their nominal time (exactly when the engines apply
  // them), and the cumulative-cost timeline records one entry per boundary.
  SimDuration window = 15 * kMinute;
  std::vector<PriceShock> shocks;
  // Optional per-access latency sampling (hits from the OSC, misses
  // remote), in trace order from an Rng seeded with `seed`.
  const LatencySampler* latency = nullptr;
  uint64_t seed = 7;
};

struct ExactOracleResult {
  // Exact-optimum spend: kEgress + kCapacity + kOperation (no infra — the
  // oracle is an idealized comparator).
  CostMeter costs;
  uint64_t osc_hits = 0;
  uint64_t remote_fetches = 0;
  uint64_t egress_bytes = 0;
  // PUTs/misses the optimum chose to admit into the cache.
  uint64_t admits = 0;
  double mean_stored_bytes = 0.0;
  // The DP objective value; equals costs.Total() up to summation order.
  double dp_total_usd = 0.0;
  // Crossover: what serving every GET remotely would cost (egress + GET
  // ops under the same schedule). caching_pays iff the optimum is strictly
  // cheaper.
  double remote_only_usd = 0.0;
  bool caching_pays = false;
  uint64_t objects_total = 0;
  uint64_t objects_cached = 0;
  // Cumulative optimum cost at each window boundary the trace crosses,
  // closed by one final entry at the trace end. Feeds per-window regret.
  std::vector<std::pair<SimTime, double>> window_cost_timeline;
  PercentileTracker latency_ms;
};

// Runs the exact offline optimum over `trace` under `prices` (optionally
// time-varying via options.shocks). Deterministic: identical output for
// identical inputs, independent of any thread count or hash-map iteration
// order.
ExactOracleResult RunExactOracle(const Trace& trace, const PriceBook& prices,
                                 const ExactOracleOptions& options = {});

// Regret of a run against the exact optimum at time `t`: realized spend
// minus the optimum's cumulative cost at the last boundary <= t (0 before
// the first boundary). Used to fill DecisionRecord::regret_usd post-hoc.
double OracleCostAt(const ExactOracleResult& oracle, SimTime t);

// Fills regret_usd = realized_cost_usd - OracleCostAt(oracle, record.time)
// on every record of an engine's decision trace. Post-hoc by design: the
// oracle needs the whole trace, so regret can only be scored after the run.
// The engines amend realized_cost_usd on every boundary record they emit,
// so every record of an engine-produced trace is annotatable.
void AnnotateRegret(obs::DecisionTrace* trace, const ExactOracleResult& oracle);

}  // namespace macaron

#endif  // MACARON_SRC_ORACLE_EXACT_ORACLE_H_
