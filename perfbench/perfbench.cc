// Benchmark program behind perfbench/run.py. Each invocation does one job
// in a fresh process and prints one JSON line on stdout:
//
//   perfbench gen     <workload> <seed> <dir>   generate the seed's inputs (cached)
//   perfbench timed   <workload> <seed> <dir>   one untraced timed run
//   perfbench serial  <workload> <seed> <dir>   the engine run serially, untraced
//   perfbench traced  <workload> <seed> <dir>   the serial run with spans and obs sinks
//   perfbench replica <workload> <seed> <dir>   the serial layer replica (replica.h)
//   perfbench info                              build and hardware provenance
//
// Workloads: stream-replay, event-cluster, sweep-cold (see README.md). The
// program touches only files under <dir>, and reads the inputs `gen` wrote.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/replica.h"
#include "src/cache/simd.h"
#include "src/common/hash.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/scheduler.h"
#include "src/trace/columnar_io.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace perfbench {
namespace {

enum class Workload { kStreamReplay, kEventCluster, kSweepCold };

struct Args {
  std::string mode;
  Workload workload = Workload::kStreamReplay;
  uint64_t seed = 0;
  std::string dir;
};

// ---------------------------------------------------------------- inputs

// The sweep-cold traces: Table 2 profiles, generated as bench::GetTrace does.
const std::vector<std::string>& SweepTraceNames() {
  static const std::vector<std::string> names = {"ibm9",  "ibm18", "ibm45",
                                                 "ibm55", "ibm58", "ibm83"};
  return names;
}

StreamProfile StreamReplayProfile(uint64_t seed) {
  StreamProfile p;
  p.name = "stream-replay";
  p.num_requests = 6'000'000;
  p.population = 1ull << 20;
  p.zipf_alpha = 0.6;
  p.mean_object_bytes = 1ull << 20;
  p.put_fraction = 0.1;
  p.delete_fraction = 0.0;
  p.duration = 2 * kDay;
  p.seed = Mix64(seed ^ 0x73747265616dull);
  return p;
}

StreamProfile EventClusterProfile(uint64_t seed) {
  StreamProfile p;
  p.name = "event-cluster";
  p.num_requests = 3'000'000;
  p.population = 1ull << 18;
  p.zipf_alpha = 0.9;
  p.mean_object_bytes = 1ull << 20;
  p.put_fraction = 0.25;
  p.delete_fraction = 0.05;
  p.duration = 3 * kDay;
  p.seed = Mix64(seed ^ 0x6576656e74ull);
  return p;
}

std::vector<std::string> InputNames(Workload w) {
  switch (w) {
    case Workload::kStreamReplay:
      return {"stream-replay"};
    case Workload::kEventCluster:
      return {"event-cluster"};
    case Workload::kSweepCold:
      return SweepTraceNames();
  }
  return {};
}

std::string InputPath(const Args& a, const std::string& name) {
  return a.dir + "/" + name + ".mctc";
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void WriteStream(const StreamProfile& p, const std::string& path) {
  SyntheticStreamSource source(p);
  ColumnarTraceWriter writer(path, p.name);
  ReplayBatch chunk;
  while (source.FillNext(&chunk)) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      writer.Add(Request{chunk.times[i], chunk.ids[i], chunk.sizes[i], chunk.ops[i]});
    }
  }
  if (!writer.Finish()) {
    Fail("writing " + path + ": " + writer.error());
  }
}

void WriteSweepTrace(const std::string& name, uint64_t seed, const std::string& path) {
  WorkloadProfile p = ProfileByName(name);
  p.seed = Mix64(seed ^ (p.seed * 0x9e3779b97f4a7c15ull));
  const Trace trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  std::string error;
  if (!WriteTraceColumnar(trace, path, &error)) {
    Fail("writing " + path + ": " + error);
  }
}

std::string IdentityHex(const std::string& path) {
  uint64_t id[2] = {0, 0};
  std::string error;
  if (!ColumnarTraceIdentity(path, id, &error)) {
    Fail("identity of " + path + ": " + error);
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(id[0]),
                static_cast<unsigned long long>(id[1]));
  return buf;
}

// Generates every missing input of the workload (write to a temporary name,
// then rename, so an interrupted run never leaves a partial file behind),
// and prints each input's ColumnarTraceIdentity.
int Gen(const Args& a) {
  std::filesystem::create_directories(a.dir);
  JsonObject ids;
  for (const std::string& name : InputNames(a.workload)) {
    const std::string path = InputPath(a, name);
    if (!std::filesystem::exists(path)) {
      const std::string tmp = path + ".tmp" + std::to_string(getpid());
      if (a.workload == Workload::kStreamReplay) {
        WriteStream(StreamReplayProfile(a.seed), tmp);
      } else if (a.workload == Workload::kEventCluster) {
        WriteStream(EventClusterProfile(a.seed), tmp);
      } else {
        WriteSweepTrace(name, a.seed, tmp);
      }
      std::filesystem::rename(tmp, path);
    }
    ids.Str(name, IdentityHex(path));
  }
  JsonObject out;
  out.Raw("inputs", ids.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------- checks

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Output checks every run makes; returns the failures (empty = correct).
std::vector<std::string> CheckResult(const RunResult& r, uint64_t expected_gets) {
  std::vector<std::string> errors;
  const std::string who = r.trace_name + "/" + r.approach_name + ": ";
  if (r.gets != expected_gets) {
    errors.push_back(who + "gets " + std::to_string(r.gets) + " != input GETs " +
                     std::to_string(expected_gets));
  }
  if (r.gets != r.cluster_hits + r.osc_hits + r.delayed_hits + r.remote_fetches) {
    errors.push_back(who + "gets != cluster_hits + osc_hits + delayed_hits + remote_fetches");
  }
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    const double v = r.costs.Get(static_cast<CostCategory>(c));
    if (!std::isfinite(v) || v < 0.0) {
      errors.push_back(who + "cost category " + std::to_string(c) + " is " + std::to_string(v));
    }
  }
  return errors;
}

std::string Digest(const std::string& bytes) {
  sweep::FingerprintHasher h;
  h.MixStr(bytes);
  return h.Digest().Hex();
}

std::string ErrorsJson(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += JsonObject::Quote(errors[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------- engines

EngineConfig WorkloadConfig(Workload w) {
  EngineConfig cfg;
  if (w == Workload::kStreamReplay) {
    cfg.approach = Approach::kMacaronNoCluster;
    cfg.measure_latency = false;
    cfg.num_shards = 4;
    cfg.shard_threads = 2;
  } else {
    cfg.approach = Approach::kMacaron;
    cfg.measure_latency = true;
    cfg.num_shards = 1;
    cfg.analyzer_threads = 2;
  }
  return cfg;
}

// Execution knobs only: the serial run's outputs equal the timed run's.
void MakeSerial(EngineConfig& cfg) {
  cfg.shard_threads = 1;
  cfg.analyzer_threads = 1;
  cfg.stream_decode_ahead = false;
}

// Pass-through source that records when (wall and process CPU) the engine
// first asks for data — the end of set-up — and, when `time_fills`, the
// duration of every FillNext.
class MarkingSource : public RequestSource {
 public:
  MarkingSource(RequestSource& inner, bool time_fills) : inner_(inner), time_fills_(time_fills) {}

  const SourceInfo& Info() const override { return inner_.Info(); }
  void Reset() override { inner_.Reset(); }
  bool FillNext(ReplayBatch* out) override {
    if (!started_) {
      started_ = true;
      first_fill_ = Clock::now();
      first_fill_cpu_ = ProcessCpuSeconds();
    }
    if (!time_fills_) {
      return inner_.FillNext(out);
    }
    const Clock::time_point t0 = Clock::now();
    const bool ok = inner_.FillNext(out);
    fills_.Add(static_cast<double>(NanosBetween(t0, Clock::now())));
    return ok;
  }

  Clock::time_point first_fill() const { return first_fill_; }
  double first_fill_cpu() const { return first_fill_cpu_; }
  const PercentileTracker& fills() const { return fills_; }

 private:
  RequestSource& inner_;
  bool time_fills_;
  bool started_ = false;
  Clock::time_point first_fill_;
  double first_fill_cpu_ = 0.0;
  PercentileTracker fills_;
};

// Opens an engine workload's input the way its timed run does: the MCTC
// file streamed (stream-replay), or materialized into `trace` and viewed by
// a TraceSource, which computes the trace's stats (event-cluster). Reports
// the load and stats seconds.
std::unique_ptr<RequestSource> OpenEngineInput(const Args& a, Trace* trace, double* load_s,
                                               double* stats_s) {
  const std::string path = InputPath(a, InputNames(a.workload)[0]);
  const Clock::time_point t0 = Clock::now();
  std::string error;
  *stats_s = 0.0;
  if (a.workload == Workload::kStreamReplay) {
    std::unique_ptr<RequestSource> source = ColumnarTraceSource::Open(path, &error);
    if (source == nullptr) {
      Fail(error);
    }
    *load_s = SecondsBetween(t0, Clock::now());
    return source;
  }
  if (!ReadTraceColumnar(path, trace, &error)) {
    Fail(error);
  }
  const Clock::time_point loaded = Clock::now();
  *load_s = SecondsBetween(t0, loaded);
  auto source = std::make_unique<TraceSource>(*trace);
  *stats_s = SecondsBetween(loaded, Clock::now());
  return source;
}

// [[window boundary, OSC capacity], ...] of the optimized windows.
std::string CapacityJson(const std::vector<std::pair<SimTime, uint64_t>>& caps) {
  std::string out = "[";
  for (const auto& [t, c] : caps) {
    if (out.size() > 1) {
      out += ',';
    }
    out += '[';
    out += std::to_string(t);
    out += ',';
    out += std::to_string(c);
    out += ']';
  }
  return out + "]";
}

// One engine run of an engine workload. `serial` switches the execution
// knobs off; `traced` adds FillNext spans and the obs sinks.
int EngineRun(const Args& a, bool serial, bool traced) {
  EngineConfig cfg = WorkloadConfig(a.workload);
  if (serial) {
    MakeSerial(cfg);
  }
  obs::MetricsRegistry metrics;
  obs::DecisionTrace decisions;
  if (traced) {
    cfg.metrics = &metrics;
    cfg.decision_trace = &decisions;
  }
  const Clock::time_point t0 = Clock::now();
  const double cpu_t0 = ProcessCpuSeconds();
  Trace trace;  // event-cluster: outlives the TraceSource that views it
  double load_s = 0.0;
  double stats_s = 0.0;
  const std::unique_ptr<RequestSource> source = OpenEngineInput(a, &trace, &load_s, &stats_s);
  MarkingSource marked(*source, traced);
  const RunResult r = a.workload == Workload::kEventCluster ? EventEngine(cfg).Run(marked)
                                                            : ReplayEngine(cfg).Run(marked);
  const Clock::time_point end = Clock::now();
  const double cpu_end = ProcessCpuSeconds();

  const SourceInfo& info = source->Info();
  const std::vector<std::string> errors = CheckResult(r, info.stats.num_gets);
  const double timed_s = SecondsBetween(marked.first_fill(), end);

  JsonObject out;
  out.Bool("ok", errors.empty());
  out.Raw("errors", ErrorsJson(errors));
  out.Str("digest", Digest(SerializeRunResult(r)));
  out.Int("requests", info.num_requests);
  out.Num("setup_s", marked.first_fill_cpu() - cpu_t0);
  out.Num("setup_wall_s", SecondsBetween(t0, marked.first_fill()));
  out.Num("timed_s", timed_s);
  out.Num("cpu_s", cpu_end - marked.first_fill_cpu());
  out.Num("peak_rss_mib", PeakRssMib());
  out.Num("load_s", load_s);
  out.Num("stats_s", stats_s);
  out.Int("gets", r.gets);
  out.Int("cluster_hits", r.cluster_hits);
  out.Int("osc_hits", r.osc_hits);
  out.Int("remote_fetches", r.remote_fetches);
  out.Int("delayed_hits", r.delayed_hits);
  out.Int("reconfigs", static_cast<uint64_t>(r.reconfigs));
  if (traced) {
    out.Num("decode_ns_total", Sum(marked.fills()));
    out.Timing("decode_ns_per_chunk", marked.fills());
    out.Int("osc.block_flushes", metrics.CounterValue("osc", "block_flushes"));
    out.Int("osc.gc_blocks", metrics.CounterValue("osc", "gc_blocks"));
    out.Int("cluster.primed_objects", metrics.CounterValue("cluster", "primed_objects"));
    out.Int("controller.optimizations", metrics.CounterValue("controller", "optimizations"));
    out.Int("minisim.sampled", metrics.CounterValue("minisim", "mrc_batch_requests") +
                                   metrics.CounterValue("minisim", "alc_batch_requests") +
                                   metrics.CounterValue("minisim", "ttl_batch_requests"));
    std::vector<std::pair<SimTime, uint64_t>> caps;
    for (const obs::DecisionRecord& rec : decisions.records()) {
      if (rec.optimized) {
        caps.emplace_back(rec.time, rec.osc_capacity);
      }
    }
    out.Raw("osc_capacity", CapacityJson(caps));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int ReplicaRun(const Args& a) {
  EngineConfig cfg = WorkloadConfig(a.workload);
  MakeSerial(cfg);
  Trace trace;
  double load_s = 0.0;
  double stats_s = 0.0;
  const std::unique_ptr<RequestSource> source = OpenEngineInput(a, &trace, &load_s, &stats_s);
  const ReplicaReport rep = RunReplica(cfg, a.workload == Workload::kEventCluster, *source);

  JsonObject out;
  out.Int("requests", rep.requests);
  out.Int("gets", rep.gets);
  out.Int("cluster_hits", rep.cluster_hits);
  out.Int("osc_hits", rep.osc_hits);
  out.Int("remote_fetches", rep.remote_fetches);
  out.Int("delayed_hits", rep.delayed_hits);
  out.Int("reconfigs", static_cast<uint64_t>(rep.reconfigs));
  out.Raw("osc_capacity", CapacityJson(rep.osc_capacity));
  out.Num("wall_s", rep.wall_s);
  out.Int("draws", rep.draws);
  // Busy time per layer over the whole run (ns).
  out.Num("busy.decode", Sum(rep.decode));
  out.Num("busy.observe", Sum(rep.observe));
  out.Num("busy.reconfigure", Sum(rep.reconfigure));
  out.Num("busy.osc_serve", rep.ServingShareNs(rep.osc_sampled_ns));
  out.Num("busy.osc_maintain", Sum(rep.maintain));
  out.Num("busy.cluster_serve", rep.ServingShareNs(rep.cluster_sampled_ns));
  out.Num("busy.cluster_rescale", Sum(rep.rescale));
  out.Num("busy.inflight", rep.ServingShareNs(rep.inflight_sampled_ns) + Sum(rep.sweep));
  out.Num("busy.serving_draws", rep.ServingShareNs(rep.draw_sampled_ns));
  out.Num("serving_ns", rep.ServingNs());
  out.Num("draw_ns_mean", rep.draw.Mean());
  out.Timing("draw_ns", rep.draw);
  out.Timing("observe_ns", rep.observe);
  out.Timing("reconfigure_ns", rep.reconfigure);
  out.Timing("maintain_ns", rep.maintain);
  out.Timing("rescale_ns", rep.rescale);
  out.Timing("osc_req_ns", rep.osc_req);
  out.Timing("cluster_req_ns", rep.cluster_req);
  out.Int("windows", rep.maintain.count());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------- sweep

struct GridJob {
  size_t trace = 0;
  sweep::JobEngine engine = sweep::JobEngine::kReplay;
  Approach approach = Approach::kMacaronNoCluster;
  bool repeat = false;  // resubmits an earlier job: served by in-process dedup
};

// Per trace: six replay approaches, macaron on the event engine, Oracular,
// the exact oracle, then the macaron replay job again (a dedup hit).
std::vector<GridJob> SweepGrid(size_t traces) {
  std::vector<GridJob> grid;
  for (size_t t = 0; t < traces; ++t) {
    for (Approach ap : {Approach::kRemote, Approach::kReplicated, Approach::kEcpc,
                        Approach::kMacaronNoCluster, Approach::kMacaron, Approach::kMacaronTtl}) {
      grid.push_back({t, sweep::JobEngine::kReplay, ap});
    }
    grid.push_back({t, sweep::JobEngine::kEvent, Approach::kMacaronNoCluster});
    grid.push_back({t, sweep::JobEngine::kOracle, Approach::kMacaronNoCluster});
    grid.push_back({t, sweep::JobEngine::kExactOracle, Approach::kMacaronNoCluster});
    grid.push_back({t, sweep::JobEngine::kReplay, Approach::kMacaronNoCluster, true});
  }
  return grid;
}

// The figure suite's default configuration (bench::DefaultConfig, cross-cloud).
EngineConfig SweepConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.scenario = LatencyScenario::kCrossCloudUs;
  cfg.measure_latency = false;
  cfg.num_minicaches = 48;
  return cfg;
}

sweep::SweepJobSpec SweepSpec(const GridJob& job,
                              const std::vector<std::shared_ptr<const Trace>>& traces) {
  sweep::SweepJobSpec spec;
  spec.trace = traces[job.trace];
  spec.trace_name = traces[job.trace]->name;
  spec.config = SweepConfig(job.approach);
  spec.engine = job.engine;
  return spec;
}

int SweepRun(const Args& a, bool traced) {
  const std::vector<GridJob> grid = SweepGrid(SweepTraceNames().size());
  const std::string store = a.dir + "/store-" + std::to_string(getpid());
  std::filesystem::remove_all(store);

  const Clock::time_point t0 = Clock::now();
  const double cpu_t0 = ProcessCpuSeconds();
  std::vector<std::shared_ptr<const Trace>> traces;
  for (const std::string& name : SweepTraceNames()) {
    auto trace = std::make_shared<Trace>();
    std::string error;
    if (!ReadTraceColumnar(InputPath(a, name), trace.get(), &error)) {
      Fail(error);
    }
    traces.push_back(std::move(trace));
  }
  const double load_s = SecondsBetween(t0, Clock::now());
  sweep::SweepScheduler::Options opt;
  opt.threads = 2;
  opt.store_dir = store;
  auto sched = std::make_unique<sweep::SweepScheduler>(opt);

  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  PercentileTracker submit_ms;
  std::vector<size_t> index;
  for (const GridJob& job : grid) {
    const Clock::time_point s0 = Clock::now();
    index.push_back(sched->Submit(SweepSpec(job, traces)));
    submit_ms.Add(SecondsBetween(s0, Clock::now()) * 1e3);
  }
  std::vector<std::string> errors;
  std::vector<const RunResult*> results(grid.size(), nullptr);
  for (size_t i = 0; i < grid.size(); ++i) {
    try {
      results[i] = &sched->Result(index[i]);
    } catch (const std::exception& ex) {
      errors.push_back("job " + std::to_string(i) + " threw: " + ex.what());
    }
  }
  const Clock::time_point end = Clock::now();
  const double cpu_end = ProcessCpuSeconds();
  const double peak_rss = PeakRssMib();
  const double makespan = SecondsBetween(start, end);

  std::vector<uint64_t> trace_gets;
  for (const std::shared_ptr<const Trace>& t : traces) {
    trace_gets.push_back(static_cast<uint64_t>(
        std::count_if(t->requests.begin(), t->requests.end(),
                      [](const Request& q) { return q.op == Op::kGet; })));
  }
  size_t failed = errors.size();
  std::vector<std::optional<std::string>> bytes(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    if (results[i] == nullptr) {
      continue;
    }
    const std::vector<std::string> e = CheckResult(*results[i], trace_gets[grid[i].trace]);
    if (e.empty()) {
      bytes[i] = SerializeRunResult(*results[i]);
    } else {
      ++failed;
      errors.insert(errors.end(), e.begin(), e.end());
    }
  }

  uint64_t requests = 0;
  PercentileTracker job_ms;
  PercentileTracker oracular_ms;
  PercentileTracker exact_ms;
  size_t dedup = 0;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (!bytes[i].has_value()) {
      continue;
    }
    const sweep::SweepJobMetrics m = sched->Metrics(index[i]);
    if (m.deduplicated) {
      ++dedup;
      continue;
    }
    requests += m.requests;
    job_ms.Add(m.wall_seconds * 1e3);
    if (grid[i].engine == sweep::JobEngine::kOracle) {
      oracular_ms.Add(m.wall_seconds * 1e3);
    } else if (grid[i].engine == sweep::JobEngine::kExactOracle) {
      exact_ms.Add(m.wall_seconds * 1e3);
    }
  }
  const sweep::SweepStats stats = sched->stats();
  sched.reset();

  // Untimed: the same grid through a second scheduler on the same store
  // must come back from the store, byte for byte.
  std::string all_bytes;
  {
    sweep::SweepScheduler warm(opt);
    std::vector<size_t> warm_index;
    for (const GridJob& job : grid) {
      warm_index.push_back(warm.Submit(SweepSpec(job, traces)));
    }
    for (size_t i = 0; i < grid.size(); ++i) {
      if (!bytes[i].has_value()) {
        continue;
      }
      try {
        const std::string again = SerializeRunResult(warm.Result(warm_index[i]));
        const sweep::SweepJobMetrics m = warm.Metrics(warm_index[i]);
        if (again != *bytes[i] || !(m.cache_hit || m.deduplicated)) {
          ++failed;
          errors.push_back("job " + std::to_string(i) + " did not come back from the store intact");
        }
      } catch (const std::exception& ex) {
        ++failed;
        errors.push_back(std::string("store re-read of job ") + std::to_string(i) +
                         " threw: " + ex.what());
      }
      all_bytes += *bytes[i];
    }
  }
  std::filesystem::remove_all(store);

  JsonObject out;
  out.Bool("ok", errors.empty());
  out.Raw("errors", ErrorsJson(errors));
  out.Int("jobs", grid.size());
  out.Int("failed_jobs", failed);
  out.Str("digest", Digest(all_bytes));
  out.Int("requests", requests);
  out.Num("setup_s", cpu_start - cpu_t0);
  out.Num("setup_wall_s", SecondsBetween(t0, start));
  out.Num("timed_s", makespan);
  out.Num("cpu_s", cpu_end - cpu_start);
  out.Num("peak_rss_mib", peak_rss);
  out.Num("load_s", load_s);
  if (traced) {
    // ComputeStats is what every in-memory engine job repeats; time it per
    // trace, outside the makespan.
    std::vector<double> stats_ms(traces.size());
    double stats_s = 0.0;
    for (size_t t = 0; t < traces.size(); ++t) {
      const Clock::time_point s0 = Clock::now();
      const TraceStats st = ComputeStats(*traces[t]);
      stats_ms[t] = SecondsBetween(s0, Clock::now()) * 1e3;
      stats_s += stats_ms[t] / 1e3;
      if (st.num_requests != traces[t]->size()) {
        Fail("ComputeStats disagrees with the trace length");
      }
    }
    double engine_stats_ms = 0.0;
    size_t engine_jobs = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      if (!sweep::IsOracleEngine(grid[i].engine) && !grid[i].repeat) {
        engine_stats_ms += stats_ms[grid[i].trace];
        ++engine_jobs;
      }
    }
    out.Num("stats_s", stats_s);
    out.Num("stats_ms_per_engine_job", engine_stats_ms / static_cast<double>(engine_jobs));
    out.Num("submit_ms_per_job", submit_ms.Mean());
    out.Timing("submit_ms", submit_ms);
    out.Num("job_ms.p50", job_ms.Quantile(0.5));
    out.Num("job_ms.p80", job_ms.Quantile(0.8));
    out.Int("job_ms.n", job_ms.count());
    out.Num("busy_s", stats.busy_seconds);
    out.Num("idle_frac", 1.0 - stats.busy_seconds / (opt.threads * makespan));
    out.Num("dedup_ratio", static_cast<double>(dedup) / static_cast<double>(grid.size()));
    out.Num("oracular_ms_per_job", oracular_ms.Mean());
    out.Num("exact_ms_per_job", exact_ms.Mean());
    out.Int("unique_jobs", stats.unique);
    out.Int("executed_jobs", stats.executed);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------- provenance

std::string ReadCacheSize(const std::string& index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" + index + "/size");
  std::string s;
  std::getline(f, s);
  return s;
}

int Info() {
  std::string model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  JsonObject out;
  out.Str("cpu_model", model);
  out.Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Str("l2", ReadCacheSize("2"));
  out.Str("l3", ReadCacheSize("3"));
  out.Str("build_type", MACARON_BUILD_TYPE);
  out.Str("compiler", MACARON_CXX_COMPILER);
  out.Str("simd", SimdFeatureString());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    Fail("usage: perfbench <gen|timed|serial|traced|replica> <workload> <seed> <dir> | info");
  }
  a.mode = argv[1];
  if (a.mode == "info") {
    return a;
  }
  if (argc != 5) {
    Fail("usage: perfbench <gen|timed|serial|traced|replica> <workload> <seed> <dir>");
  }
  const std::string w = argv[2];
  if (w == "stream-replay") {
    a.workload = Workload::kStreamReplay;
  } else if (w == "event-cluster") {
    a.workload = Workload::kEventCluster;
  } else if (w == "sweep-cold") {
    a.workload = Workload::kSweepCold;
  } else {
    Fail("unknown workload " + w);
  }
  char* end = nullptr;
  a.seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') {
    Fail(std::string("bad seed ") + argv[3]);
  }
  a.dir = argv[4];
  return a;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "info") {
    return Info();
  }
  if (a.mode == "gen") {
    return Gen(a);
  }
  const bool sweep_workload = a.workload == Workload::kSweepCold;
  if (a.mode == "timed") {
    return sweep_workload ? SweepRun(a, false) : EngineRun(a, false, false);
  }
  if (a.mode == "traced" && sweep_workload) {
    return SweepRun(a, true);
  }
  if (sweep_workload) {
    Fail("mode " + a.mode + " applies to the engine workloads only");
  }
  if (a.mode == "serial") {
    return EngineRun(a, true, false);
  }
  if (a.mode == "traced") {
    return EngineRun(a, true, true);
  }
  if (a.mode == "replica") {
    return ReplicaRun(a);
  }
  Fail("unknown mode " + a.mode);
}

}  // namespace
}  // namespace perfbench
}  // namespace macaron

int main(int argc, char** argv) {
  try {
    return macaron::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
