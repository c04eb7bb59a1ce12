// Shared helpers for the experiment harnesses.
//
// Each bench binary regenerates one table or figure from the paper: it
// builds the synthetic trace suite, runs the relevant approaches, and prints
// the same rows/series the paper reports. Absolute dollar values differ
// from the paper (traces are synthetic and byte-scaled); the shapes —
// who wins, by what factor, where crossovers fall — are the reproduction
// target (see EXPERIMENTS.md).
//
// All simulation goes through a shared SweepScheduler (src/sweep): figures
// submit their full (trace, config) grid up front, then collect results by
// submission index, so rows print bit-identically to a serial run while the
// actual simulations fan out across cores and memoize into the persistent
// result cache. Thread count and cache directory come from the environment
// (MACARON_SWEEP_THREADS, MACARON_RESULT_CACHE) or from ConfigureSweep.

#ifndef MACARON_BENCH_HARNESS_H_
#define MACARON_BENCH_HARNESS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/oracle/exact_oracle.h"
#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/sweep/scheduler.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace macaron {
namespace bench {

// Generates (and memoizes) the split trace for a workload profile name.
// Thread-safe: concurrent callers for the same name block on one generation.
// Every generated trace is kept for the process lifetime, so the returned
// reference stays valid.
const Trace& GetTrace(const std::string& name);

// Names of all 19 workloads / the 15 IBM workloads.
std::vector<std::string> AllTraceNames();
std::vector<std::string> IbmTraceNames();

// Default engine configuration for a deployment scenario.
EngineConfig DefaultConfig(Approach a, DeploymentScenario scenario,
                           bool measure_latency = false);

// The process-wide sweep scheduler every bench binary submits through.
// Created on first use from the environment (MACARON_SWEEP_THREADS,
// MACARON_RESULT_CACHE — empty/"off"/"0" disables persistence, default
// ".macaron-results"; MACARON_OBS_DIR — empty/unset disables observability
// output) unless ConfigureSweep ran first.
sweep::SweepScheduler& SharedSweep();

// The sweep thread count from MACARON_SWEEP_THREADS, an integer in
// [1, 1024], or the hardware concurrency when it is unset or empty. A
// malformed value exits with status 2 (src/common/cli.h).
int SweepThreadsFromEnv();

// Overrides the shared scheduler's thread count, cache directory, and
// observability output directory (empty disables; MACARON_OBS_DIR is the
// environment fallback when ConfigureSweep never runs). Call before the
// first submission (bench_all does); any scheduler already created is torn
// down, invalidating outstanding job indices.
void ConfigureSweep(int threads, const std::string& cache_dir,
                    const std::string& obs_dir = "");

// Submits one job against a named workload (no trace generation happens at
// submit time; workers resolve the name through GetTrace). Returns the job
// index to pass to Result.
size_t Submit(const std::string& trace_name, const EngineConfig& config,
              sweep::JobEngine engine = sweep::JobEngine::kReplay);

// Submits one job against an ad-hoc trace (keyed by content hash). Pass by
// value: move in a temporary, or copy a retained trace.
size_t Submit(Trace trace, const EngineConfig& config,
              sweep::JobEngine engine = sweep::JobEngine::kReplay);

// Convenience: named workload under the default config.
size_t Submit(const std::string& trace_name, Approach a, DeploymentScenario scenario,
              bool measure_latency = false);

// Oracular submissions: the exact optimum on the op-free price book
// (collect with Result; the approach prints as "oracular").
size_t SubmitOracle(const std::string& trace_name, DeploymentScenario scenario,
                    bool measure_latency = false);

// Dollar-exact offline optimum submissions (collect with Result; the
// approach prints as "exact-oracle"). Memoizes through the sweep like any
// other engine. Figures that need the oracle-only extras — the per-window
// cost timeline for regret annotation, the crossover verdict, the DP total
// — call RunExact below instead.
size_t SubmitExactOracle(const std::string& trace_name, DeploymentScenario scenario,
                         bool measure_latency = false);

// Runs the exact offline optimum synchronously under `config` (window
// cadence, prices, price shocks, seed all honored). Not sweep-memoized:
// results carry the full timeline, which RunResult cannot hold.
ExactOracleResult RunExact(const Trace& t, const EngineConfig& config);

// Materializes a streamed synthetic profile into an in-memory Trace (same
// request sequence the engines replay chunk by chunk). Oracle scoring needs
// the whole trace; scenario figures materialize once and submit the engines
// against the same content-hashed trace so every comparator sees identical
// requests.
Trace MaterializeStream(const StreamProfile& profile);

// Blocks until job `index` finishes and returns its result. The reference
// stays valid for the scheduler's lifetime.
const RunResult& Result(size_t index);

// Runs one approach over one trace with the default configuration
// (submit + await through the shared sweep, so results memoize).
RunResult RunApproach(const Trace& t, Approach a, DeploymentScenario scenario,
                      bool measure_latency = false);

// Prints a section header.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// Formats a dollar value / a percentage.
std::string Dollars(double d);
std::string Percent(double frac);

// True when this translation unit was compiled with optimization (and with
// NDEBUG, so MACARON_CHECKs and assert()s compile to nothing). Benchmark
// numbers from a non-optimized build are meaningless: bench_all's --json
// report and the repository benchmark (BENCHMARK.json, perfbench/) are
// Release-only.
constexpr bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// Prints a loud stderr banner if this is not an optimized build. stderr so
// the warning cannot perturb the byte-compared stdout of the figure
// harnesses. `binary` names the offender in the banner.
void WarnIfUnoptimizedBuild(const char* binary);

}  // namespace bench
}  // namespace macaron

// Every bench .cc defines `int RunX()` and closes with MACARON_BENCH_MAIN(RunX).
// Standalone binaries get a main() from the macro; the bench_all suite library
// compiles the same sources with -DMACARON_BENCH_SUITE (macro expands to
// nothing) and calls the RunX functions through the bench/suite.h registry.
// Every entry point warns (stderr) when the binary was built without
// optimization, so timings from a debug build can't be mistaken for real.
#ifdef MACARON_BENCH_SUITE
#define MACARON_BENCH_MAIN(fn)
#else
#define MACARON_BENCH_MAIN(fn)                            \
  int main() {                                            \
    ::macaron::bench::WarnIfUnoptimizedBuild(#fn);        \
    return fn();                                          \
  }
#endif

#endif  // MACARON_BENCH_HARNESS_H_
