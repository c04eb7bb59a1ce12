#include "src/controller/analyzer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/minisim/size_grid.h"
#include "src/obs/metrics.h"

namespace macaron {

void DecayedScalarAverage::Add(double value, double weight, double elapsed_days) {
  const double decay = std::pow(decay_per_day_, elapsed_days);
  weighted_sum_ = weighted_sum_ * decay + value * weight;
  total_weight_ = total_weight_ * decay + weight;
}

WorkloadAnalyzer::WorkloadAnalyzer(const AnalyzerConfig& config, const LatencySampler* latency)
    : config_(config),
      mrc_bank_(UniformSizeGrid(config.min_capacity_bytes,
                                std::max(config.max_capacity_bytes, config.min_capacity_bytes * 2),
                                config.num_minicaches),
                config.sampling_ratio, /*salt=*/config.seed, config.policy),
      mrc_avg_(config.decay_per_day),
      bmc_avg_(config.decay_per_day),
      alc_avg_(config.alc_decay_per_day),
      reads_avg_(config.decay_per_day),
      writes_avg_(config.decay_per_day),
      object_bytes_avg_(config.decay_per_day),
      get_bytes_avg_(config.decay_per_day) {
  if (config.enable_alc) {
    MACARON_CHECK(latency != nullptr);
    alc_bank_ = std::make_unique<AlcBank>(mrc_bank_.grid(), mrc_bank_.grid().back(),
                                          config.sampling_ratio, config.seed ^ 0xa1c,
                                          latency, config.seed ^ 0xa1c0);
  }
  if (config.enable_ttl) {
    ttl_bank_ = std::make_unique<TtlBank>(StandardTtlGrid(config.max_ttl), config.sampling_ratio,
                                          config.seed ^ 0x771);
    ttl_mrc_avg_ = std::make_unique<DecayedCurveAverage>(config.decay_per_day);
    ttl_bmc_avg_ = std::make_unique<DecayedCurveAverage>(config.decay_per_day);
    ttl_cap_avg_ = std::make_unique<DecayedCurveAverage>(config.decay_per_day);
  }
}

void WorkloadAnalyzer::SetExecution(ThreadPool* pool, bool async) {
  mrc_bank_.SetExecution(pool, async);
  if (alc_bank_ != nullptr) {
    alc_bank_->SetExecution(pool, async);
  }
  if (ttl_bank_ != nullptr) {
    ttl_bank_->SetExecution(pool, async);
  }
}

void WorkloadAnalyzer::ProcessColumns(const ReplayBatch& chunk, size_t begin, size_t end) {
  if (begin >= end) {
    return;
  }
  mrc_bank_.ProcessColumns(chunk, begin, end);
  if (alc_bank_ != nullptr) {
    alc_bank_->ProcessColumns(chunk, begin, end);
  }
  if (ttl_bank_ != nullptr) {
    ttl_bank_->ProcessColumns(chunk, begin, end);
  }
  // Window scalars fold from the columns in one pass. Deletes carry no
  // payload: folding them in would deflate mean_object_bytes and with it
  // the operation-cost estimate (objects per block).
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes = 0;
  uint64_t get_bytes = 0;
  for (size_t k = begin; k < end; ++k) {
    const bool is_get = chunk.ops[k] == Op::kGet;
    const bool is_put = chunk.ops[k] == Op::kPut;
    reads += static_cast<uint64_t>(is_get);
    writes += static_cast<uint64_t>(is_put);
    get_bytes += is_get ? chunk.sizes[k] : 0;
    bytes += (is_get || is_put) ? chunk.sizes[k] : 0;
  }
  window_reads_ += reads;
  window_writes_ += writes;
  window_bytes_ += bytes;
  window_get_bytes_ += get_bytes;
  window_ops_with_bytes_ += reads + writes;
  if (requests_counter_ != nullptr) {
    requests_counter_->Inc(end - begin);
  }
}

AnalyzerReport WorkloadAnalyzer::EndWindow(SimDuration elapsed) {
  MACARON_CHECK(elapsed > 0);
  if (windows_counter_ != nullptr) {
    windows_counter_->Inc();
  }
  const double elapsed_days = DurationDays(elapsed);
  AnalyzerReport report;
  report.window_requests = window_reads_ + window_writes_;

  WindowCurves window = mrc_bank_.EndWindow();
  const double weight = static_cast<double>(window.window_requests);
  mrc_avg_.Add(window.mrc, weight, elapsed_days);
  bmc_avg_.Add(window.bmc, weight, elapsed_days);
  report.aggregated_mrc = mrc_avg_.Average();
  report.aggregated_bmc = bmc_avg_.Average();

  reads_avg_.Add(static_cast<double>(window_reads_), 1.0, elapsed_days);
  writes_avg_.Add(static_cast<double>(window_writes_), 1.0, elapsed_days);
  if (window_ops_with_bytes_ > 0) {
    object_bytes_avg_.Add(
        static_cast<double>(window_bytes_) / static_cast<double>(window_ops_with_bytes_), weight,
        elapsed_days);
  }
  get_bytes_avg_.Add(static_cast<double>(window_get_bytes_), weight, elapsed_days);
  report.expected_window_reads = reads_avg_.Average();
  report.expected_window_writes = writes_avg_.Average();
  report.expected_window_get_bytes = get_bytes_avg_.Average();
  report.mean_object_bytes = object_bytes_avg_.Average();

  if (alc_bank_ != nullptr) {
    // Performance uses the recent access pattern (§5.2 Metric Aggregation):
    // a strongly recency-weighted average of the window ALCs.
    const AlcWindow alc_window = alc_bank_->EndWindow();
    if (alc_window.sampled_gets > 0) {
      alc_avg_.Add(alc_window.alc, static_cast<double>(alc_window.sampled_gets), elapsed_days);
    }
    if (!alc_avg_.empty()) {
      report.latest_alc = alc_avg_.Average();
    }
  }
  if (ttl_bank_ != nullptr) {
    TtlWindowCurves ttl = ttl_bank_->EndWindow(elapsed);
    ttl_mrc_avg_->Add(ttl.mrc, weight, elapsed_days);
    ttl_bmc_avg_->Add(ttl.bmc, weight, elapsed_days);
    ttl_cap_avg_->Add(ttl.capacity, weight, elapsed_days);
    report.aggregated_ttl_mrc = ttl_mrc_avg_->Average();
    report.aggregated_ttl_bmc = ttl_bmc_avg_->Average();
    report.aggregated_ttl_capacity = ttl_cap_avg_->Average();
    report.ttl_curves_latest = std::move(ttl);
  }

  // Serverless accounting: each mini-cache runs as a Lambda over the sampled
  // window stream; wall time is the slowest (they run in parallel), billed
  // GB-seconds sum over all of them.
  const double sampled =
      static_cast<double>(report.window_requests) * config_.sampling_ratio;
  const double per_function_seconds =
      config_.lambda_base_seconds + config_.lambda_seconds_per_request * sampled;
  int functions = config_.num_minicaches;
  if (alc_bank_ != nullptr) {
    functions += config_.num_minicaches;
  }
  if (ttl_bank_ != nullptr) {
    functions += static_cast<int>(ttl_bank_->ttl_grid().size());
  }
  report.analysis_seconds = per_function_seconds;
  report.lambda_gb_seconds = per_function_seconds * 8.0 * static_cast<double>(functions);

  window_reads_ = 0;
  window_writes_ = 0;
  window_bytes_ = 0;
  window_get_bytes_ = 0;
  window_ops_with_bytes_ = 0;
  return report;
}

void WorkloadAnalyzer::SetOscCapacity(uint64_t bytes) {
  if (alc_bank_ != nullptr) {
    alc_bank_->SetOscCapacity(bytes);
  }
}

void WorkloadAnalyzer::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    requests_counter_ = nullptr;
    windows_counter_ = nullptr;
    mrc_bank_.set_metrics(nullptr, nullptr);
    if (alc_bank_ != nullptr) {
      alc_bank_->set_metrics(nullptr, nullptr);
    }
    if (ttl_bank_ != nullptr) {
      ttl_bank_->set_metrics(nullptr, nullptr);
    }
    return;
  }
  requests_counter_ = registry->counter("analyzer", "requests");
  windows_counter_ = registry->counter("analyzer", "windows");
  mrc_bank_.set_metrics(registry->counter("minisim", "mrc_batches"),
                        registry->counter("minisim", "mrc_batch_requests"));
  if (alc_bank_ != nullptr) {
    alc_bank_->set_metrics(registry->counter("minisim", "alc_batches"),
                           registry->counter("minisim", "alc_batch_requests"));
  }
  if (ttl_bank_ != nullptr) {
    ttl_bank_->set_metrics(registry->counter("minisim", "ttl_batches"),
                           registry->counter("minisim", "ttl_batch_requests"));
  }
}

}  // namespace macaron
