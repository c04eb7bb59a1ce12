// Sweep scheduler: concurrent execution of independent simulation jobs with
// deterministic results.
//
// The figure suite is an embarrassingly parallel outer loop — (trace,
// EngineConfig) pairs that share no mutable state — so the scheduler fans
// unique jobs across the shared ThreadPool and callers collect results *by
// submission index*, never by completion order. Printed figure rows are
// therefore bit-identical to a serial run at any thread count (including
// threads <= 1, which degenerates to running each job inline at Submit).
//
// Three memoization layers sit in front of the engines:
//  * in-process dedup: submitting a job whose fingerprint matches an
//    earlier submission (same binary, or two figures sharing a row) shares
//    the same execution — the duplicate does zero simulation work;
//  * the persistent ResultStore: a fingerprint already computed by a
//    previous process is loaded from disk instead of simulated;
//  * per-trace stats: the Table 2 stats pass (ComputeStats) that every
//    replay/event run starts with depends only on the trace, so it runs
//    once per trace identity; the first engine job on a trace computes it,
//    later ones wait for that result and replay a TraceSource built on it.
//
// Submit rejects, with std::invalid_argument naming the field, the configs
// an engine would otherwise abort the whole process for on a worker.
//
// Per-job wall-clock and throughput metrics plus scheduler-wide stats
// (peak jobs in flight, store hits, busy seconds) feed bench_all's --json
// report.

#ifndef MACARON_SRC_SWEEP_SCHEDULER_H_
#define MACARON_SRC_SWEEP_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/oracle/exact_oracle.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"
#include "src/trace/trace.h"

namespace macaron {
namespace sweep {

// Which simulator executes the job. Part of the job fingerprint.
enum class JobEngine : int {
  kReplay = 0,       // ReplayEngine (the paper's simulator; the default)
  kEvent = 1,        // EventEngine (prototype-fidelity, Table 3 validation)
  kOracle = 2,       // Oracular (§5.4): the exact optimum on the op-free price book
  kExactOracle = 3,  // dollar-exact offline optimum (src/oracle/exact_oracle.h)
};

// Oracle-family engines have no controller/observability to attach.
inline bool IsOracleEngine(JobEngine e) { return static_cast<int>(e) >= 2; }

struct SweepJobSpec {
  // The trace: `trace`, an explicit in-memory trace (must stay alive until
  // the job completes — pass ownership via the shared_ptr if in doubt), or,
  // when `trace` is null, `trace_name`, which the scheduler resolves through
  // the trace provider on a worker (so trace generation itself runs
  // concurrently). Streamed and file-backed runs call an engine's
  // Run(RequestSource&) directly.
  std::string trace_name;
  std::shared_ptr<const Trace> trace;

  // Identity of the trace for the result-store key and the per-trace stats
  // memo, so equal identities must mean equal requests. Zero means
  // "derive": content hash of `trace` (named-only jobs must supply one,
  // since hashing would force generation at submit time). The scheduler
  // hashes each trace object once while it lives, so a submitted trace
  // must not change while jobs on it can run, nor before it is submitted
  // again.
  Fingerprint trace_identity;

  EngineConfig config;
  JobEngine engine = JobEngine::kReplay;
};

struct SweepJobMetrics {
  bool cache_hit = false;      // served from the persistent store
  bool deduplicated = false;   // shared an earlier in-process submission
  double wall_seconds = 0.0;   // execution (or store-load) time
  uint64_t requests = 0;       // trace length (0 when served from the store)
  double requests_per_second = 0.0;
};

struct SweepStats {
  size_t submitted = 0;    // Submit calls
  size_t unique = 0;       // distinct fingerprints
  size_t executed = 0;     // jobs that actually ran a simulator
  size_t store_hits = 0;   // jobs served from the persistent store
  int peak_in_flight = 0;  // max jobs running concurrently
  double busy_seconds = 0.0;  // summed per-job wall time (parallel work)
  size_t stats_passes = 0;    // ComputeStats runs: one per trace among executed engine jobs
  size_t content_hashes = 0;  // FingerprintTraceContent runs: one per live trace object
};

class SweepScheduler {
 public:
  struct Options {
    // <= 1 runs every job inline at Submit (the serial reference path).
    int threads = 1;
    // Persistent store directory; empty disables persistence.
    std::string store_dir;
    // Resolves trace names for jobs submitted without an explicit trace.
    // Called from worker threads; must be thread-safe. The job holds the
    // returned trace for the length of its run.
    std::function<std::shared_ptr<const Trace>(const std::string&)> trace_provider;
    // Observability output directory; empty (the default) disables. When
    // set, every executed replay/event job runs with a decision trace and
    // metrics registry attached and writes <fingerprint>.trace.jsonl /
    // <fingerprint>.metrics.json there, plus a line in index.tsv. The obs
    // sinks are NOT part of the job fingerprint: results loaded from a warm
    // store are bit-identical but produce no trace (nothing ran).
    std::string obs_dir;
  };

  explicit SweepScheduler(Options options);
  // Blocks until every submitted job has finished.
  ~SweepScheduler();

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;

  // Enqueues one job and returns its index (== submission order). Duplicate
  // fingerprints share the earlier execution. Throws std::invalid_argument,
  // queueing nothing, for a spec without a resolvable trace or a config the
  // job's engine cannot run.
  size_t Submit(SweepJobSpec spec);

  // Blocks until job `index` completes; rethrows anything the job threw.
  // The reference stays valid for the scheduler's lifetime.
  const RunResult& Result(size_t index);

  // Metrics for a completed job (call after Result).
  SweepJobMetrics Metrics(size_t index);

  SweepStats stats() const;
  int threads() const { return options_.threads; }
  ResultStore& store() { return store_; }

 private:
  struct Execution {
    std::promise<void> done;
    std::shared_future<void> ready;
    RunResult result;
    SweepJobMetrics metrics;
  };
  struct JobRecord {
    std::shared_ptr<Execution> exec;
    bool deduplicated = false;
  };

  void Execute(const SweepJobSpec& spec, const Fingerprint& key,
               const std::shared_ptr<Execution>& exec);
  // ComputeStats(trace), run at most once per trace identity.
  TraceStats StatsFor(const Fingerprint& trace_identity, const Trace& trace);
  // FingerprintTraceContent(*trace), run at most once per live trace object.
  Fingerprint ContentIdentityOf(const std::shared_ptr<const Trace>& trace);

  Options options_;
  ResultStore store_;

  // Serializes index.tsv appends from worker threads (obs_dir mode only).
  std::mutex obs_mu_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Execution>> by_fingerprint_;
  std::vector<JobRecord> jobs_;
  // Trace identity (hex) -> its stats, fulfilled by the job that claimed
  // the entry; the pass itself runs outside mu_.
  std::unordered_map<std::string, std::shared_future<TraceStats>> stats_by_trace_;
  // Content identities of traces submitted without one, by trace object.
  // The weak_ptr never extends a trace's lifetime; once it expires (the
  // trace freed, its address free for another) the entry is recomputed.
  struct ContentIdentity {
    std::weak_ptr<const Trace> trace;
    Fingerprint identity;
  };
  std::unordered_map<const Trace*, ContentIdentity> content_identities_;
  size_t executed_ = 0;
  size_t store_hits_ = 0;
  size_t stats_passes_ = 0;
  size_t content_hashes_ = 0;
  double busy_seconds_ = 0.0;

  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};

  // Destroyed first: the pool drains queued tasks, which reference the
  // members above, before any of them go away.
  ThreadPool pool_;
};

// Runs the exact offline optimum under `config`: same prices, window
// cadence, price shocks, seed, and (when measure_latency is set) the same
// fitted latency generator construction as the engines. Both oracle jobs
// run it: kExactOracle on `config.prices`, kOracle on
// `config.prices.OpFree()`. Their RunResults keep the cost, counter and
// latency fields; the oracle-only extras (window timeline, crossover, DP
// total) do not fit a RunResult, so callers needing them (regret
// annotation, crossover figures) call this directly.
ExactOracleResult RunExactOracleWithConfig(const Trace& trace, const EngineConfig& config);

}  // namespace sweep
}  // namespace macaron

#endif  // MACARON_SRC_SWEEP_SCHEDULER_H_
