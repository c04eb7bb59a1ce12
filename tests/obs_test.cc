// Tests for the observability layer (src/obs): metrics registry semantics,
// decision-trace JSONL schema (golden line), determinism across analyzer
// thread counts, the zero-overhead disabled mode, the trace-vs-timeline
// acceptance invariant, and the sweep scheduler's obs_dir side channel.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/sweep/scheduler.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

// Allocation counting for the disabled-mode test. Sanitizer builds intercept
// operator new themselves, so the override is compiled out there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MACARON_OBS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MACARON_OBS_TEST_SANITIZED 1
#endif
#endif

#ifndef MACARON_OBS_TEST_SANITIZED
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif  // MACARON_OBS_TEST_SANITIZED

namespace macaron {
namespace {

// --- Metrics registry ---

TEST(MetricsRegistryTest, CounterDedupAndValue) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter* a = reg.counter("osc", "admits");
  obs::Counter* b = reg.counter("osc", "admits");
  EXPECT_EQ(a, b);  // re-registration returns the same slot
  a->Inc();
  a->Inc(4);
  EXPECT_EQ(reg.CounterValue("osc", "admits"), 5u);
  EXPECT_EQ(reg.CounterValue("osc", "never_registered"), 0u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_FALSE(reg.empty());
}

TEST(MetricsRegistryTest, JsonGoldenGroupsByComponentInRegistrationOrder) {
  obs::MetricsRegistry reg;
  reg.counter("osc", "admits")->Inc(3);
  reg.counter("controller", "windows")->Inc();
  reg.counter("osc", "deletes");
  EXPECT_EQ(reg.Json(),
            "{\n"
            "  \"osc\": {\n"
            "    \"admits\": 3,\n"
            "    \"deletes\": 0\n"
            "  },\n"
            "  \"controller\": {\n"
            "    \"windows\": 1\n"
            "  }\n"
            "}\n");
}

// --- Curve summaries ---

TEST(SummarizeCurveTest, ExtremesAndChosenPoint) {
  const Curve c({1.0, 2.0, 3.0}, {0.5, 0.1, 0.25});
  const obs::CurveSummary s = obs::SummarizeCurve(c, 1);
  EXPECT_EQ(s.points, 3u);
  EXPECT_EQ(s.x_min, 1.0);
  EXPECT_EQ(s.x_max, 3.0);
  EXPECT_EQ(s.y_min, 0.1);
  EXPECT_EQ(s.y_max, 0.5);
  EXPECT_EQ(s.chosen_index, 1);
  EXPECT_EQ(s.chosen_x, 2.0);
  EXPECT_EQ(s.chosen_y, 0.1);
  // No chosen index: chosen fields stay at their defaults.
  const obs::CurveSummary none = obs::SummarizeCurve(c);
  EXPECT_EQ(none.chosen_index, -1);
  EXPECT_EQ(none.chosen_x, 0.0);
  // Empty curve: everything defaulted.
  EXPECT_EQ(obs::SummarizeCurve(Curve()).points, 0u);
}

// --- JSONL schema (golden) ---

TEST(DecisionTraceJsonTest, GoldenLine) {
  obs::DecisionRecord rec;
  rec.window = 3;
  rec.time = 900000;
  rec.optimized = true;
  rec.ttl_mode = false;
  rec.mrc = obs::SummarizeCurve(Curve({1.0, 2.0}, {0.5, 0.25}), 1);
  rec.osc_capacity = 1000;
  rec.garbage_bytes = 7;
  rec.cost_capacity_usd = 0.5;
  rec.cost_egress_usd = 0.25;
  rec.cost_operation_usd = 0.125;
  rec.cost_total_usd = 0.875;
  rec.expected_window_reads = 10;
  rec.expected_window_writes = 2;
  rec.expected_window_get_bytes = 1024;
  rec.mean_object_bytes = 512;
  rec.objects_per_block = 4;
  rec.cluster_enabled = true;
  rec.cluster_met_target = true;
  rec.cluster_requested_nodes = 3;
  rec.cluster_nodes = 2;
  rec.cluster_capacity_bytes = 2000000000;
  rec.cluster_predicted_latency_ms = 50;
  rec.lambda_gb_seconds = 0.5;
  rec.analysis_seconds = 1;
  rec.reconfig_seconds = 7;
  rec.price_egress_per_gb = 0.25;
  rec.price_storage_per_gb_month = 0.125;
  rec.realized_cost_usd = 1.5;
  rec.regret_usd = 0.75;
  const char* kEmptyCurve =
      "{\"points\":0,\"x_min\":0,\"x_max\":0,\"y_min\":0,\"y_max\":0,"
      "\"chosen_index\":-1,\"chosen_x\":0,\"chosen_y\":0}";
  std::string expected =
      "{\"window\":3,\"time\":900000,\"optimized\":true,\"mode\":\"capacity\","
      "\"osc_capacity\":1000,\"ttl_ms\":0,\"garbage_bytes\":7,"
      "\"cost\":{\"capacity_usd\":0.5,\"egress_usd\":0.25,\"operation_usd\":0.125,"
      "\"total_usd\":0.875},"
      "\"curves\":{\"mrc\":{\"points\":2,\"x_min\":1,\"x_max\":2,\"y_min\":0.25,"
      "\"y_max\":0.5,\"chosen_index\":1,\"chosen_x\":2,\"chosen_y\":0.25},";
  expected += std::string("\"bmc\":") + kEmptyCurve + ",\"cost\":" + kEmptyCurve +
              ",\"alc\":" + kEmptyCurve + "},";
  expected +=
      "\"workload\":{\"expected_reads\":10,\"expected_writes\":2,"
      "\"expected_get_bytes\":1024,\"mean_object_bytes\":512,\"objects_per_block\":4},"
      "\"cluster\":{\"enabled\":true,\"met_target\":true,\"clamped\":false,"
      "\"budget_clamped\":false,\"requested_nodes\":3,\"nodes\":2,"
      "\"capacity_bytes\":2000000000,\"predicted_latency_ms\":50},"
      "\"overhead\":{\"lambda_gb_seconds\":0.5,\"analysis_seconds\":1,"
      "\"reconfig_seconds\":7},"
      "\"prices\":{\"egress_per_gb\":0.25,\"storage_per_gb_month\":0.125},"
      "\"economics\":{\"realized_cost_usd\":1.5,\"regret_usd\":0.75}}";
  EXPECT_EQ(DecisionRecordJsonLine(rec), expected);
}

TEST(DecisionTraceJsonTest, JsonlOneNewlineTerminatedLinePerRecord) {
  obs::DecisionTrace trace;
  trace.Append(obs::DecisionRecord{});
  obs::DecisionRecord second;
  second.window = 1;
  trace.Append(second);
  const std::string doc = DecisionTraceJsonl(trace);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.back(), '\n');
  size_t lines = 0;
  for (char c : doc) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, trace.size());
  EXPECT_EQ(DecisionTraceJsonl(obs::DecisionTrace()), "");
}

// --- Engine integration ---

// A small, fast workload with strong reuse (mirrors tests/sim_test.cc).
Trace SmallTrace(uint64_t seed = 5) {
  WorkloadProfile p = ProfileByName("ibm18");
  p.seed = seed;
  p.dataset_bytes = 500'000'000;
  p.get_bytes = 2'000'000'000;
  p.put_bytes = 100'000'000;
  p.duration = 2 * kDay;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

EngineConfig BaseConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 16;
  return cfg;
}

// The ISSUE acceptance invariant: with observability attached, a Macaron run
// emits one record per controller window, and the optimized records' chosen
// capacities / node counts match the RunResult timelines exactly. The
// attached sinks must not change the result itself by a single byte.
TEST(ReplayEngineObsTest, TraceMatchesTimelinesAndLeavesResultUntouched) {
  const Trace t = SmallTrace();
  EngineConfig plain = BaseConfig(Approach::kMacaron);
  const RunResult baseline = ReplayEngine(plain).Run(t);

  obs::DecisionTrace trace;
  obs::MetricsRegistry metrics;
  EngineConfig observed = plain;
  observed.decision_trace = &trace;
  observed.metrics = &metrics;
  const RunResult r = ReplayEngine(observed).Run(t);

  EXPECT_EQ(SerializeRunResult(r), SerializeRunResult(baseline));

  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(metrics.CounterValue("controller", "windows"), trace.size());
  std::vector<const obs::DecisionRecord*> optimized;
  for (const obs::DecisionRecord& rec : trace.records()) {
    if (rec.optimized) {
      optimized.push_back(&rec);
    }
  }
  EXPECT_EQ(metrics.CounterValue("controller", "optimizations"), optimized.size());
  ASSERT_EQ(optimized.size(), r.osc_capacity_timeline.size());
  ASSERT_EQ(optimized.size(), r.cluster_nodes_timeline.size());
  for (size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(optimized[i]->time, r.osc_capacity_timeline[i].first) << i;
    EXPECT_EQ(optimized[i]->osc_capacity, r.osc_capacity_timeline[i].second) << i;
    EXPECT_EQ(optimized[i]->time, r.cluster_nodes_timeline[i].first) << i;
    EXPECT_EQ(optimized[i]->cluster_nodes, r.cluster_nodes_timeline[i].second) << i;
    EXPECT_TRUE(optimized[i]->cluster_enabled) << i;
  }
  // Windows are consecutive, starting at 0.
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.records()[i].window, i);
  }
  // The instrumented components reported through the registry.
  EXPECT_GT(metrics.CounterValue("osc", "admits"), 0u);
  EXPECT_GT(metrics.CounterValue("cluster", "lookups"), 0u);
  EXPECT_GT(metrics.CounterValue("analyzer", "requests"), 0u);
  EXPECT_GT(metrics.CounterValue("minisim", "mrc_batches"), 0u);
}

TEST(ReplayEngineObsTest, TraceIsIdenticalAcrossAnalyzerThreadCounts) {
  const Trace t = SmallTrace(11);
  obs::DecisionTrace serial_trace;
  EngineConfig serial = BaseConfig(Approach::kMacaronNoCluster);
  serial.measure_latency = false;
  serial.analyzer_threads = 1;
  serial.decision_trace = &serial_trace;
  const RunResult a = ReplayEngine(serial).Run(t);

  obs::DecisionTrace parallel_trace;
  EngineConfig parallel = serial;
  parallel.analyzer_threads = 4;
  parallel.decision_trace = &parallel_trace;
  const RunResult b = ReplayEngine(parallel).Run(t);

  EXPECT_EQ(SerializeRunResult(a), SerializeRunResult(b));
  EXPECT_EQ(DecisionTraceJsonl(serial_trace), DecisionTraceJsonl(parallel_trace));
}

TEST(ReplayEngineObsTest, TtlTraceMatchesTtlTimeline) {
  const Trace t = SmallTrace();
  obs::DecisionTrace trace;
  EngineConfig cfg = BaseConfig(Approach::kMacaronTtl);
  cfg.measure_latency = false;
  cfg.decision_trace = &trace;
  const RunResult r = ReplayEngine(cfg).Run(t);
  std::vector<const obs::DecisionRecord*> optimized;
  for (const obs::DecisionRecord& rec : trace.records()) {
    if (rec.optimized) {
      EXPECT_TRUE(rec.ttl_mode);
      optimized.push_back(&rec);
    }
  }
  ASSERT_EQ(optimized.size(), r.ttl_timeline.size());
  for (size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(optimized[i]->time, r.ttl_timeline[i].first) << i;
    EXPECT_EQ(optimized[i]->ttl, r.ttl_timeline[i].second) << i;
  }
}

TEST(EventEngineObsTest, TraceCapacitiesMatchTimelineInOrder) {
  // The event engine applies each decision only after the reconfiguration
  // pipeline completes (§7.7), so timeline timestamps lag the window
  // boundary and a tail decision may never apply — but every applied
  // capacity must come from an optimized trace record, in order.
  const Trace t = SmallTrace(17);
  obs::DecisionTrace trace;
  obs::MetricsRegistry metrics;
  EngineConfig cfg = BaseConfig(Approach::kMacaronNoCluster);
  cfg.measure_latency = false;
  cfg.decision_trace = &trace;
  cfg.metrics = &metrics;
  const RunResult r = EventEngine(cfg).Run(t);
  std::vector<const obs::DecisionRecord*> optimized;
  for (const obs::DecisionRecord& rec : trace.records()) {
    if (rec.optimized) {
      optimized.push_back(&rec);
    }
  }
  ASSERT_FALSE(optimized.empty());
  ASSERT_LE(r.osc_capacity_timeline.size(), optimized.size());
  for (size_t i = 0; i < r.osc_capacity_timeline.size(); ++i) {
    EXPECT_EQ(optimized[i]->osc_capacity, r.osc_capacity_timeline[i].second) << i;
    EXPECT_LE(optimized[i]->time, r.osc_capacity_timeline[i].first) << i;
  }
  EXPECT_EQ(metrics.CounterValue("controller", "windows"), trace.size());
  EXPECT_GT(metrics.CounterValue("osc", "admits"), 0u);
}

// --- Disabled mode ---

#ifndef MACARON_OBS_TEST_SANITIZED
TEST(DisabledModeTest, DisabledPathAllocatesNothing) {
  // The disabled mode is: no sinks constructed anywhere, every component
  // holding null Counter* members, every instrumentation site one null
  // check. "Default-constructed it holds no heap memory" (DecisionTrace)
  // must hold too — a trace sink costs nothing until the first Append.
  // (MetricsRegistry is excluded here: libstdc++'s deque allocates its map
  // on construction, and a registry only ever exists when observability was
  // explicitly requested.)
  bool trace_empty = false;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  {
    obs::DecisionTrace trace;
    obs::Counter* null_counter = nullptr;
    if (null_counter != nullptr) {  // the instrumentation-site idiom
      null_counter->Inc();
    }
    trace_empty = trace.empty();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(trace_empty);
}
#endif  // MACARON_OBS_TEST_SANITIZED

// --- Sweep scheduler side channel ---

TEST(SweepObsDirTest, WritesArtifactsOnExecutionButNotOnWarmStoreHits) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "macaron_obs_sweep_test";
  fs::remove_all(root);
  const std::string store_dir = (root / "store").string();
  const std::string cold_obs = (root / "obs-cold").string();
  const std::string warm_obs = (root / "obs-warm").string();

  auto trace = std::make_shared<const Trace>(SmallTrace(23));
  sweep::SweepJobSpec spec;
  spec.trace_name = trace->name;
  spec.trace = trace;
  spec.config = BaseConfig(Approach::kMacaronNoCluster);
  spec.config.measure_latency = false;

  auto count_traces = [](const std::string& dir) {
    size_t n = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      if (e.path().string().find(".trace.jsonl") != std::string::npos) {
        ++n;
      }
    }
    return n;
  };

  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = store_dir;
    opt.obs_dir = cold_obs;
    sweep::SweepScheduler sched(opt);
    sched.Result(sched.Submit(spec));
    EXPECT_EQ(sched.stats().executed, 1u);
  }
  EXPECT_EQ(count_traces(cold_obs), 1u);
  EXPECT_TRUE(fs::exists(fs::path(cold_obs) / "index.tsv"));

  {
    // Same store, fresh obs dir: the job is served warm and — by design —
    // emits no trace (no controller ran).
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = store_dir;
    opt.obs_dir = warm_obs;
    sweep::SweepScheduler sched(opt);
    sched.Result(sched.Submit(spec));
    EXPECT_EQ(sched.stats().store_hits, 1u);
  }
  EXPECT_EQ(count_traces(warm_obs), 0u);
  EXPECT_FALSE(fs::exists(fs::path(warm_obs) / "index.tsv"));

  fs::remove_all(root);
}

}  // namespace
}  // namespace macaron
