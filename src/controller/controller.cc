#include "src/controller/controller.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"

namespace macaron {

namespace {
// Cluster spend is capped at this fraction of the expected per-window data
// cost, so the latency tier stays proportionate to the workload's bill (§7.5
// reports the cache cluster adding ~30% on top of Macaron's cost).
constexpr double kClusterBudgetFraction = 0.3;
}  // namespace

MacaronController::MacaronController(const ControllerConfig& config, const PriceBook& prices,
                                     const LatencySampler* latency)
    : config_(config), prices_(prices), analyzer_(config.analyzer, latency) {
  MACARON_CHECK(config.window > 0);
  MACARON_CHECK(config.observation >= 0);
  // analyzer.threads sizes the shared engine pool the banks are wired to
  // (SetExecution); a silly thread count here is almost certainly a
  // mis-wired config rather than a real request.
  MACARON_CHECK(config.analyzer.threads >= 0 && config.analyzer.threads <= 1024);
  if (config_.enable_cluster) {
    MACARON_CHECK(config_.analyzer.enable_alc);
  }
  if (config_.mode == OptimizationMode::kTtl) {
    MACARON_CHECK(config_.analyzer.enable_ttl);
  }
}

void MacaronController::SetObservability(obs::DecisionTrace* trace,
                                         obs::MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics != nullptr) {
    windows_counter_ = metrics->counter("controller", "windows");
    optimize_counter_ = metrics->counter("controller", "optimizations");
  } else {
    windows_counter_ = nullptr;
    optimize_counter_ = nullptr;
  }
  analyzer_.RegisterMetrics(metrics);
}

double MacaronController::ObjectsPerBlock(double mean_object_bytes) const {
  if (!config_.packing_enabled) {
    return 1.0;
  }
  if (mean_object_bytes <= 0.0) {
    return static_cast<double>(config_.packing_max_objects);
  }
  const double by_bytes =
      static_cast<double>(config_.packing_block_bytes) / mean_object_bytes;
  return std::clamp(by_bytes, 1.0, static_cast<double>(config_.packing_max_objects));
}

ReconfigDecision MacaronController::Reconfigure(SimTime now, uint64_t garbage_bytes) {
  ReconfigDecision d;
  const uint64_t window_index = window_index_++;
  if (windows_counter_ != nullptr) {
    windows_counter_->Inc();
  }
  AnalyzerReport report = analyzer_.EndWindow(config_.window);
  d.lambda_gb_seconds = report.lambda_gb_seconds;
  d.analysis_seconds = report.analysis_seconds;
  if (!PastObservation(now)) {
    // Observation period: no optimization; the engine caches everything.
    d.reconfig_seconds = 0.0;
    if (trace_ != nullptr) {
      obs::DecisionRecord rec;
      rec.window = window_index;
      rec.time = now;
      rec.optimized = false;
      rec.ttl_mode = config_.mode == OptimizationMode::kTtl;
      rec.garbage_bytes = garbage_bytes;
      rec.lambda_gb_seconds = d.lambda_gb_seconds;
      rec.analysis_seconds = d.analysis_seconds;
      rec.price_egress_per_gb = prices_.egress_per_gb;
      rec.price_storage_per_gb_month = prices_.object_storage_per_gb_month;
      trace_->Append(rec);
    }
    return d;
  }
  if (optimize_counter_ != nullptr) {
    optimize_counter_->Inc();
  }
  d.optimized = true;
  d.expected_window_reads = report.expected_window_reads;
  d.expected_window_get_bytes = report.expected_window_get_bytes;
  d.mean_object_bytes = report.mean_object_bytes;
  const double objects_per_block = ObjectsPerBlock(report.mean_object_bytes);

  size_t chosen_index = 0;
  CostBreakdown breakdown;
  if (config_.mode == OptimizationMode::kCapacity) {
    OptimizerInputs in;
    in.mrc = report.aggregated_mrc;
    in.bmc = report.aggregated_bmc;
    in.window_writes = report.expected_window_writes;
    in.window_reads = report.expected_window_reads;
    in.garbage_bytes = garbage_bytes;
    in.objects_per_block = objects_per_block;
    in.window = config_.window;
    in.pricing = config_.capacity_pricing;
    const CapacityDecision cd = OptimizeCapacity(in, prices_);
    d.osc_capacity = cd.capacity_bytes;
    d.cost_curve = cd.cost_curve;
    chosen_index = cd.chosen_index;
    breakdown = cd.breakdown;
    analyzer_.SetOscCapacity(d.osc_capacity);
    prev_osc_capacity_ = d.osc_capacity;
  } else {
    MACARON_CHECK(report.aggregated_ttl_mrc.has_value());
    TtlOptimizerInputs in;
    in.mrc = *report.aggregated_ttl_mrc;
    in.bmc = *report.aggregated_ttl_bmc;
    in.capacity = *report.aggregated_ttl_capacity;
    in.window_writes = report.expected_window_writes;
    in.window_reads = report.expected_window_reads;
    in.garbage_bytes = garbage_bytes;
    in.objects_per_block = objects_per_block;
    in.window = config_.window;
    const TtlDecision td = OptimizeTtl(in, prices_);
    d.ttl = td.ttl;
    d.cost_curve = td.cost_curve;
    chosen_index = td.chosen_index;
    breakdown = td.breakdown;
  }

  ClusterDecision cluster;
  bool cluster_ran = false;
  bool budget_clamped = false;
  uint64_t requested_nodes = 0;
  if (config_.enable_cluster && report.latest_alc.has_value()) {
    ClusterDecision cd =
        SizeCluster(*report.latest_alc, config_.cluster_latency_target_ms,
                    prices_.cache_node_usable_bytes, config_.max_cluster_nodes,
                    config_.cluster_shards);
    requested_nodes = cd.nodes;
    if (config_.mode == OptimizationMode::kCapacity) {
      // Bound cluster spend relative to the expected window cost of serving
      // the workload.
      const double node_cost_per_window =
          prices_.cache_node_per_hour * DurationHours(config_.window);
      if (node_cost_per_window > 0.0) {
        const double budget_nodes = kClusterBudgetFraction *
                                    d.cost_curve.y(d.cost_curve.ArgMin()) /
                                    node_cost_per_window;
        cd.nodes = std::min<size_t>(
            cd.nodes, std::max<size_t>(1, static_cast<size_t>(budget_nodes)));
      }
    }
    budget_clamped = cd.nodes < requested_nodes;
    if (config_.cluster_shards > 1) {
      // The budget clamp can break the whole-nodes-per-shard invariant the
      // sizer established; restore it (rounding up keeps the budget clamp
      // within one shard-multiple of its cut).
      cd.nodes = RoundNodesToShards(cd.nodes, config_.cluster_shards,
                                    config_.max_cluster_nodes);
    }
    d.cluster_nodes = cd.nodes;
    d.latest_alc = report.latest_alc;
    cluster = cd;
    cluster_ran = true;
  }
  d.cluster_changed = d.cluster_nodes != prev_cluster_nodes_;
  prev_cluster_nodes_ = d.cluster_nodes;

  // End-to-end reconfiguration time (§7.7): workload analysis plus, when the
  // cluster scales, VM launch and cache priming (132-387 s measured; modeled
  // around the 256 s average), otherwise a ~7 s metadata-only update.
  d.reconfig_seconds =
      report.analysis_seconds + (d.cluster_changed && d.cluster_nodes > 0 ? 256.0 : 7.0);

  if (trace_ != nullptr) {
    obs::DecisionRecord rec;
    rec.window = window_index;
    rec.time = now;
    rec.optimized = true;
    rec.ttl_mode = config_.mode == OptimizationMode::kTtl;
    const int64_t chosen = static_cast<int64_t>(chosen_index);
    if (rec.ttl_mode) {
      rec.mrc = obs::SummarizeCurve(*report.aggregated_ttl_mrc, chosen);
      rec.bmc = obs::SummarizeCurve(*report.aggregated_ttl_bmc, chosen);
    } else {
      rec.mrc = obs::SummarizeCurve(report.aggregated_mrc, chosen);
      rec.bmc = obs::SummarizeCurve(report.aggregated_bmc, chosen);
    }
    rec.cost = obs::SummarizeCurve(d.cost_curve, chosen);
    if (d.latest_alc.has_value()) {
      rec.alc = obs::SummarizeCurve(*d.latest_alc);
    }
    rec.osc_capacity = d.osc_capacity;
    rec.ttl = d.ttl;
    rec.garbage_bytes = garbage_bytes;
    rec.cost_capacity_usd = breakdown.capacity_usd;
    rec.cost_egress_usd = breakdown.egress_usd;
    rec.cost_operation_usd = breakdown.operation_usd;
    rec.cost_total_usd = breakdown.total();
    rec.expected_window_reads = report.expected_window_reads;
    rec.expected_window_writes = report.expected_window_writes;
    rec.expected_window_get_bytes = report.expected_window_get_bytes;
    rec.mean_object_bytes = report.mean_object_bytes;
    rec.objects_per_block = objects_per_block;
    rec.cluster_enabled = cluster_ran;
    if (cluster_ran) {
      rec.cluster_met_target = cluster.met_target;
      rec.cluster_clamped = cluster.clamped;
      rec.cluster_budget_clamped = budget_clamped;
      rec.cluster_requested_nodes = requested_nodes;
      rec.cluster_nodes = d.cluster_nodes;
      rec.cluster_capacity_bytes = cluster.capacity_bytes;
      rec.cluster_predicted_latency_ms = cluster.predicted_latency_ms;
    }
    rec.lambda_gb_seconds = d.lambda_gb_seconds;
    rec.analysis_seconds = d.analysis_seconds;
    rec.reconfig_seconds = d.reconfig_seconds;
    rec.price_egress_per_gb = prices_.egress_per_gb;
    rec.price_storage_per_gb_month = prices_.object_storage_per_gb_month;
    trace_->Append(rec);
  }
  return d;
}

}  // namespace macaron
