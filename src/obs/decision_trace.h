// Structured per-window decision trace for the Macaron controller.
//
// Each controller Reconfigure emits one DecisionRecord: what the aggregated
// curves looked like, which grid point the optimizer chose and why (cost
// breakdown), what the cluster sizer decided (target met vs knee fallback,
// clamp events), and the §7.7 overhead accounting. The trace is a pure side
// channel: records never enter RunResult or the sweep result store, so warm
// cached results stay bit-identical whether or not a trace was attached.
// Serialization to JSONL lives in src/sim/report_io (next to the RunResult
// blob); the schema is documented in DESIGN.md ("Observability").

#ifndef MACARON_SRC_OBS_DECISION_TRACE_H_
#define MACARON_SRC_OBS_DECISION_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/curve.h"
#include "src/common/sim_time.h"

namespace macaron {
namespace obs {

// Compact summary of one aggregated curve: grid extremes plus the chosen
// grid point (chosen_index < 0 when the decision did not pick on this
// curve, e.g. the ALC, whose pick is reported via the cluster fields).
struct CurveSummary {
  uint64_t points = 0;
  double x_min = 0.0;
  double x_max = 0.0;
  double y_min = 0.0;
  double y_max = 0.0;
  int64_t chosen_index = -1;
  double chosen_x = 0.0;
  double chosen_y = 0.0;
};

CurveSummary SummarizeCurve(const Curve& c, int64_t chosen_index = -1);

struct DecisionRecord {
  uint64_t window = 0;    // 0-based ordinal of the controller window
  SimTime time = 0;       // sim time (ms) of the window boundary
  bool optimized = false; // false inside the observation period
  bool ttl_mode = false;  // Macaron-TTL vs capacity optimization

  // Aggregated curves behind the decision. In capacity mode mrc/bmc are the
  // decayed capacity-domain curves; in TTL mode they are the TTL-domain
  // curves. `cost` is the expected-cost curve the optimizer minimized; `alc`
  // is present (points > 0) only when the cluster sizer ran.
  CurveSummary mrc;
  CurveSummary bmc;
  CurveSummary cost;
  CurveSummary alc;

  // The choice.
  uint64_t osc_capacity = 0;  // capacity mode (and ECPC node sizing)
  SimDuration ttl = 0;        // TTL mode
  uint64_t garbage_bytes = 0; // OSC packing garbage billed on top

  // Predicted per-window cost breakdown at the chosen grid point.
  double cost_capacity_usd = 0.0;
  double cost_egress_usd = 0.0;
  double cost_operation_usd = 0.0;
  double cost_total_usd = 0.0;

  // Workload expectations feeding the optimizer.
  double expected_window_reads = 0.0;
  double expected_window_writes = 0.0;
  double expected_window_get_bytes = 0.0;
  double mean_object_bytes = 0.0;
  double objects_per_block = 0.0;

  // Cluster sizing (§5.1), when the DRAM tier is enabled.
  bool cluster_enabled = false;
  bool cluster_met_target = false;    // latency target satisfied vs knee fallback
  bool cluster_clamped = false;       // SizeCluster hit max_nodes
  bool cluster_budget_clamped = false;  // §7.5 budget cap shrank the fleet
  uint64_t cluster_requested_nodes = 0; // SizeCluster output before the budget cap
  uint64_t cluster_nodes = 0;           // deployed node count
  uint64_t cluster_capacity_bytes = 0;
  double cluster_predicted_latency_ms = 0.0;

  // Overhead accounting (§7.7).
  double lambda_gb_seconds = 0.0;
  double analysis_seconds = 0.0;
  double reconfig_seconds = 0.0;

  // Active data-path prices when the decision was taken (these change
  // mid-run under EngineConfig::price_shocks).
  double price_egress_per_gb = 0.0;
  double price_storage_per_gb_month = 0.0;

  // Economics scoring. realized_cost_usd is the engine's cumulative actual
  // spend through this boundary (data-path categories: egress + capacity +
  // operations), folded deterministically from the shard integrals; the
  // engines amend it into the record after Reconfigure returns. regret_usd
  // is realized spend minus the exact offline optimum's cumulative cost at
  // the same boundary — filled post-hoc by AnnotateRegret (bench/tests)
  // since the oracle needs the whole trace; < 0 until annotated.
  double realized_cost_usd = 0.0;
  double regret_usd = -1.0;
};

// Append-only record sink owned by whoever wants the trace (the sweep
// scheduler, a test, a tool). Default-constructed it holds no heap memory.
class DecisionTrace {
 public:
  void Append(const DecisionRecord& r) { records_.push_back(r); }
  void Clear() { records_.clear(); }

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  const std::vector<DecisionRecord>& records() const { return records_; }
  // For the engines to amend realized-cost fields into the record the
  // controller just appended; nullptr when empty.
  DecisionRecord* mutable_last() { return records_.empty() ? nullptr : &records_.back(); }
  std::vector<DecisionRecord>& mutable_records() { return records_; }

 private:
  std::vector<DecisionRecord> records_;
};

}  // namespace obs
}  // namespace macaron

#endif  // MACARON_SRC_OBS_DECISION_TRACE_H_
