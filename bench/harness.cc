#include "bench/harness.h"

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/cli.h"
#include "src/common/thread_pool.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"

namespace macaron {
namespace bench {

namespace {

// Trace cache: every generated trace stays for the process lifetime. A
// generating entry exists with a null trace so concurrent callers for the
// same name block on one generation.
struct TraceCache {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::string, std::shared_ptr<const Trace>> entries;  // null while generating
};
TraceCache* g_trace_cache = new TraceCache();

// Backs both GetTrace and the sweep's trace provider.
std::shared_ptr<const Trace> GetTraceShared(const std::string& name) {
  TraceCache& c = *g_trace_cache;
  std::unique_lock<std::mutex> lock(c.mu);
  for (;;) {
    auto it = c.entries.find(name);
    if (it == c.entries.end()) {
      break;  // this caller generates
    }
    if (it->second != nullptr) {
      return it->second;
    }
    c.cv.wait(lock);  // another caller is generating this name
  }
  c.entries[name];  // placeholder: a null trace marks "generating"
  lock.unlock();

  // Generation runs outside the lock: distinct workloads generate
  // concurrently, concurrent callers for the same name block on one winner.
  const WorkloadProfile p = ProfileByName(name);
  auto trace =
      std::make_shared<const Trace>(SplitObjects(GenerateTrace(p), p.max_object_bytes));

  lock.lock();
  c.entries[name] = trace;
  c.cv.notify_all();
  return trace;
}

}  // namespace

const Trace& GetTrace(const std::string& name) { return *GetTraceShared(name); }

std::vector<std::string> AllTraceNames() {
  std::vector<std::string> names;
  for (const WorkloadProfile& p : AllProfiles()) {
    names.push_back(p.name);
  }
  return names;
}

std::vector<std::string> IbmTraceNames() {
  std::vector<std::string> names;
  for (const WorkloadProfile& p : AllProfiles()) {
    if (p.name.rfind("ibm", 0) == 0) {
      names.push_back(p.name);
    }
  }
  return names;
}

EngineConfig DefaultConfig(Approach a, DeploymentScenario scenario, bool measure_latency) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(scenario);
  cfg.scenario = scenario == DeploymentScenario::kCrossCloud ? LatencyScenario::kCrossCloudUs
                                                             : LatencyScenario::kCrossRegionUs;
  cfg.measure_latency = measure_latency;
  cfg.num_minicaches = 48;
  return cfg;
}

namespace {

std::mutex g_sweep_mu;
std::unique_ptr<sweep::SweepScheduler>* g_sweep = new std::unique_ptr<sweep::SweepScheduler>();
bool g_configured = false;
int g_threads = 0;
std::string* g_cache_dir = new std::string();
std::string* g_obs_dir = new std::string();

std::string EnvCacheDir() {
  const char* s = std::getenv("MACARON_RESULT_CACHE");
  if (s == nullptr) {
    return ".macaron-results";
  }
  const std::string v = s;
  if (v.empty() || v == "off" || v == "0") {
    return "";  // persistence disabled
  }
  return v;
}

std::string EnvObsDir() {
  const char* s = std::getenv("MACARON_OBS_DIR");
  return s != nullptr ? s : "";  // empty: observability disabled
}

}  // namespace

int SweepThreadsFromEnv() {
  const char* s = std::getenv("MACARON_SWEEP_THREADS");
  if (s == nullptr || *s == '\0') {
    return ThreadPool::HardwareConcurrency();
  }
  return static_cast<int>(
      cli::ParseUnsigned("MACARON_SWEEP_THREADS", s, 1, 1024, "an integer in [1, 1024]"));
}

void ConfigureSweep(int threads, const std::string& cache_dir, const std::string& obs_dir) {
  std::lock_guard<std::mutex> lock(g_sweep_mu);
  g_sweep->reset();  // drains any existing scheduler first
  g_threads = threads;
  *g_cache_dir = cache_dir;
  *g_obs_dir = obs_dir;
  g_configured = true;
}

sweep::SweepScheduler& SharedSweep() {
  std::lock_guard<std::mutex> lock(g_sweep_mu);
  if (*g_sweep == nullptr) {
    sweep::SweepScheduler::Options opt;
    opt.threads = g_configured ? g_threads : SweepThreadsFromEnv();
    opt.store_dir = g_configured ? *g_cache_dir : EnvCacheDir();
    opt.obs_dir = g_configured ? *g_obs_dir : EnvObsDir();
    opt.trace_provider = [](const std::string& n) { return GetTraceShared(n); };
    *g_sweep = std::make_unique<sweep::SweepScheduler>(std::move(opt));
  }
  return **g_sweep;
}

size_t Submit(const std::string& trace_name, const EngineConfig& config,
              sweep::JobEngine engine) {
  sweep::SweepJobSpec spec;
  spec.trace_name = trace_name;
  spec.trace_identity = sweep::FingerprintWorkloadProfile(ProfileByName(trace_name));
  spec.config = config;
  spec.engine = engine;
  return SharedSweep().Submit(std::move(spec));
}

size_t Submit(Trace trace, const EngineConfig& config, sweep::JobEngine engine) {
  sweep::SweepJobSpec spec;
  auto owned = std::make_shared<const Trace>(std::move(trace));
  spec.trace_name = owned->name;
  spec.trace = std::move(owned);
  spec.config = config;
  spec.engine = engine;
  return SharedSweep().Submit(std::move(spec));
}

size_t Submit(const std::string& trace_name, Approach a, DeploymentScenario scenario,
              bool measure_latency) {
  return Submit(trace_name, DefaultConfig(a, scenario, measure_latency));
}

size_t SubmitOracle(const std::string& trace_name, DeploymentScenario scenario,
                    bool measure_latency) {
  return Submit(trace_name, DefaultConfig(Approach::kRemote, scenario, measure_latency),
                sweep::JobEngine::kOracle);
}

size_t SubmitExactOracle(const std::string& trace_name, DeploymentScenario scenario,
                         bool measure_latency) {
  return Submit(trace_name, DefaultConfig(Approach::kRemote, scenario, measure_latency),
                sweep::JobEngine::kExactOracle);
}

ExactOracleResult RunExact(const Trace& t, const EngineConfig& config) {
  return sweep::RunExactOracleWithConfig(t, config);
}

Trace MaterializeStream(const StreamProfile& profile) {
  SyntheticStreamSource source(profile);
  Trace t;
  t.name = profile.name;
  t.requests.reserve(profile.num_requests);
  ReplayBatch batch;
  while (source.FillNext(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Request r;
      r.time = batch.times[i];
      r.id = batch.ids[i];
      r.size = batch.sizes[i];
      r.op = batch.ops[i];
      t.requests.push_back(r);
    }
  }
  return t;
}

const RunResult& Result(size_t index) { return SharedSweep().Result(index); }

namespace {

// Non-owning handoff for the synchronous Run* helpers: the caller's trace
// outlives the immediate Result() await, so no copy is needed.
std::shared_ptr<const Trace> Borrow(const Trace& t) {
  return std::shared_ptr<const Trace>(&t, [](const Trace*) {});
}

}  // namespace

RunResult RunApproach(const Trace& t, Approach a, DeploymentScenario scenario,
                      bool measure_latency) {
  sweep::SweepJobSpec spec;
  spec.trace_name = t.name;
  spec.trace = Borrow(t);
  spec.config = DefaultConfig(a, scenario, measure_latency);
  sweep::SweepScheduler& s = SharedSweep();
  return s.Result(s.Submit(std::move(spec)));
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title.c_str(), paper_ref.c_str());
  std::printf("================================================================\n");
}

std::string Dollars(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "$%.4f", d);
  return buf;
}

std::string Percent(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

void WarnIfUnoptimizedBuild(const char* binary) {
  if (OptimizedBuild()) {
    return;
  }
  std::fprintf(stderr,
               "================================================================\n"
               "WARNING: %s was built WITHOUT optimization (no -O / NDEBUG).\n"
               "Timings from this build are meaningless; bench_all --json and\n"
               "perfbench (BENCHMARK.json) measure Release builds only.\n"
               "Rebuild with:  cmake --preset release && cmake --build build-release -j\n"
               "================================================================\n",
               binary);
}

}  // namespace bench
}  // namespace macaron
