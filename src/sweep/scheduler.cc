#include "src/sweep/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/request_source.h"

namespace macaron {
namespace sweep {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

RunResult OracleToRunResult(const std::string& trace_name, const char* approach_name,
                            const ExactOracleResult& o) {
  RunResult r;
  r.trace_name = trace_name;
  r.approach_name = approach_name;
  r.costs = o.costs;
  r.gets = o.osc_hits + o.remote_fetches;
  r.osc_hits = o.osc_hits;
  r.remote_fetches = o.remote_fetches;
  r.egress_bytes = o.egress_bytes;
  r.mean_stored_bytes = o.mean_stored_bytes;
  r.latency_ms = o.latency_ms;
  return r;
}

}  // namespace

ExactOracleResult RunExactOracleWithConfig(const Trace& trace, const EngineConfig& config) {
  ExactOracleOptions opts;
  opts.window = config.window;
  opts.shocks = config.price_shocks;
  opts.seed = config.seed;
  if (!config.measure_latency) {
    return RunExactOracle(trace, config.prices, opts);
  }
  GroundTruthLatency truth(config.scenario);
  FittedLatencyGenerator fitted(truth, 400, config.seed ^ 0xfeed);
  opts.latency = &fitted;
  return RunExactOracle(trace, config.prices, opts);
}

SweepScheduler::SweepScheduler(Options options)
    : options_(std::move(options)), store_(options_.store_dir), pool_(options_.threads) {
  if (!options_.obs_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.obs_dir, ec);
    // An unwritable obs_dir degrades to per-job write failures, not a crash.
  }
}

SweepScheduler::~SweepScheduler() {
  // ~ThreadPool drains the queue; nothing else to do. Jobs whose futures
  // were never collected still complete (and persist) before destruction.
}

size_t SweepScheduler::Submit(SweepJobSpec spec) {
  if (spec.trace == nullptr && spec.trace_name.empty()) {
    throw std::invalid_argument("sweep: job has no trace (need a trace or a trace_name)");
  }
  if (spec.trace == nullptr && options_.trace_provider == nullptr) {
    throw std::invalid_argument("sweep: named job submitted without a trace provider");
  }
  const EngineKind kind = IsOracleEngine(spec.engine)          ? EngineKind::kOracle
                          : spec.engine == JobEngine::kEvent ? EngineKind::kEvent
                                                             : EngineKind::kReplay;
  ValidateConfig(spec.config, kind);
  if (spec.trace_identity.IsZero()) {
    if (spec.trace == nullptr) {
      throw std::invalid_argument(
          "sweep: named job needs an explicit trace identity (content hashing would force "
          "generation at submit time)");
    }
    spec.trace_identity = ContentIdentityOf(spec.trace);
  }
  const Fingerprint key = JobFingerprint(spec.trace_identity, FingerprintEngineConfig(spec.config),
                                         static_cast<int>(spec.engine));
  const std::string hex = key.Hex();

  std::shared_ptr<Execution> exec;
  bool fresh = false;
  size_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_fingerprint_.find(hex);
    if (it == by_fingerprint_.end()) {
      exec = std::make_shared<Execution>();
      exec->ready = exec->done.get_future().share();
      by_fingerprint_.emplace(hex, exec);
      fresh = true;
    } else {
      exec = it->second;
    }
    index = jobs_.size();
    jobs_.push_back({exec, !fresh});
  }
  if (fresh) {
    // With threads <= 1 the pool runs this inline — the serial path.
    pool_.Submit([this, spec = std::move(spec), key, exec] { Execute(spec, key, exec); });
  }
  return index;
}

void SweepScheduler::Execute(const SweepJobSpec& spec, const Fingerprint& key,
                             const std::shared_ptr<Execution>& exec) {
  const int now_in_flight = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  int peak = peak_in_flight_.load(std::memory_order_relaxed);
  while (now_in_flight > peak &&
         !peak_in_flight_.compare_exchange_weak(peak, now_in_flight, std::memory_order_relaxed)) {
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    const std::string hex = key.Hex();
    if (store_.Load(hex, &exec->result)) {
      exec->metrics.cache_hit = true;
    } else {
      // The job holds its trace for the whole run.
      std::shared_ptr<const Trace> held = spec.trace;
      if (held == nullptr) {
        held = options_.trace_provider(spec.trace_name);
        if (held == nullptr) {
          throw std::runtime_error("sweep: trace provider returned null for " +
                                   spec.trace_name);
        }
      }
      // Observability sinks for this execution (oracle jobs have no
      // controller to trace). Local to the job: deliberately excluded from
      // the fingerprint, so attaching them cannot invalidate warm results.
      obs::DecisionTrace trace_sink;
      obs::MetricsRegistry metrics_sink;
      const bool observed = !options_.obs_dir.empty() && !IsOracleEngine(spec.engine);
      EngineConfig cfg = spec.config;
      if (observed) {
        cfg.decision_trace = &trace_sink;
        cfg.metrics = &metrics_sink;
      }
      switch (spec.engine) {
        case JobEngine::kReplay:
        case JobEngine::kEvent: {
          TraceSource source(*held, StatsFor(spec.trace_identity, *held));
          exec->result = spec.engine == JobEngine::kReplay ? ReplayEngine(cfg).Run(source)
                                                           : EventEngine(cfg).Run(source);
          break;
        }
        case JobEngine::kOracle:
        case JobEngine::kExactOracle: {
          const bool oracular = spec.engine == JobEngine::kOracle;
          if (oracular) {
            cfg.prices = cfg.prices.OpFree();
          }
          const std::string& name = spec.trace_name.empty() ? held->name : spec.trace_name;
          exec->result = OracleToRunResult(name, oracular ? "oracular" : "exact-oracle",
                                           RunExactOracleWithConfig(*held, cfg));
          break;
        }
      }
      exec->metrics.requests = held->size();
      store_.Store(hex, exec->result);
      if (observed) {
        const std::string base = options_.obs_dir + "/" + hex;
        if (!trace_sink.empty()) {
          WriteDecisionTraceJsonl(trace_sink, base + ".trace.jsonl");
        }
        if (!metrics_sink.empty()) {
          const std::string doc = metrics_sink.Json();
          if (std::FILE* f = std::fopen((base + ".metrics.json").c_str(), "w")) {
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
          }
        }
        std::lock_guard<std::mutex> lock(obs_mu_);
        if (std::FILE* f = std::fopen((options_.obs_dir + "/index.tsv").c_str(), "a")) {
          std::fprintf(f, "%s\t%s\t%s\t%s\n", hex.c_str(), exec->result.trace_name.c_str(),
                       exec->result.approach_name.c_str(),
                       spec.engine == JobEngine::kEvent ? "event" : "replay");
          std::fclose(f);
        }
      }
    }
    exec->metrics.wall_seconds = SecondsSince(start);
    if (exec->metrics.requests > 0 && exec->metrics.wall_seconds > 0) {
      exec->metrics.requests_per_second =
          static_cast<double>(exec->metrics.requests) / exec->metrics.wall_seconds;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (exec->metrics.cache_hit) {
        ++store_hits_;
      } else {
        ++executed_;
      }
      busy_seconds_ += exec->metrics.wall_seconds;
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    exec->done.set_value();
  } catch (...) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    exec->done.set_exception(std::current_exception());
  }
}

Fingerprint SweepScheduler::ContentIdentityOf(const std::shared_ptr<const Trace>& trace) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = content_identities_.find(trace.get());
    if (it != content_identities_.end() && !it->second.trace.expired()) {
      return it->second.identity;
    }
  }
  // Hashed outside mu_: concurrent first submissions of one trace may both
  // hash it, and agree.
  const Fingerprint identity = FingerprintTraceContent(*trace);
  std::lock_guard<std::mutex> lock(mu_);
  content_identities_[trace.get()] = ContentIdentity{trace, identity};
  ++content_hashes_;
  return identity;
}

TraceStats SweepScheduler::StatsFor(const Fingerprint& trace_identity, const Trace& trace) {
  std::promise<TraceStats> pass;
  std::shared_future<TraceStats> stats;
  bool claimed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = stats_by_trace_.try_emplace(trace_identity.Hex());
    if (inserted) {
      it->second = pass.get_future().share();
      claimed = true;
      ++stats_passes_;
    }
    stats = it->second;
  }
  // The claiming job computes without waiting on anything, so a job that
  // waits here always waits on a job already running (or, with threads <= 1,
  // already finished).
  if (claimed) {
    try {
      pass.set_value(ComputeStats(trace));
    } catch (...) {
      pass.set_exception(std::current_exception());
    }
  }
  return stats.get();
}

const RunResult& SweepScheduler::Result(size_t index) {
  std::shared_ptr<Execution> exec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    exec = jobs_.at(index).exec;
  }
  exec->ready.get();  // rethrows job exceptions
  return exec->result;
}

SweepJobMetrics SweepScheduler::Metrics(size_t index) {
  std::shared_ptr<Execution> exec;
  bool deduplicated;
  {
    std::lock_guard<std::mutex> lock(mu_);
    exec = jobs_.at(index).exec;
    deduplicated = jobs_.at(index).deduplicated;
  }
  exec->ready.get();
  SweepJobMetrics m = exec->metrics;
  m.deduplicated = deduplicated;
  return m;
}

SweepStats SweepScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SweepStats s;
  s.submitted = jobs_.size();
  s.unique = by_fingerprint_.size();
  s.executed = executed_;
  s.store_hits = store_hits_;
  s.peak_in_flight = peak_in_flight_.load(std::memory_order_relaxed);
  s.busy_seconds = busy_seconds_;
  s.stats_passes = stats_passes_;
  s.content_hashes = content_hashes_;
  return s;
}

}  // namespace sweep
}  // namespace macaron
