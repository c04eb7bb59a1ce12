// Tests for the sweep scheduler: bit-identical results at any thread count,
// in-process dedup, the persistent result store, the per-trace stats memo,
// config rejection at Submit, RunResult serialization, and fingerprint
// stability/sensitivity.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/controller/analyzer.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/sweep/fingerprint.h"
#include "src/sweep/result_store.h"
#include "src/sweep/scheduler.h"
#include "src/trace/request_source.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// Small fast workloads (a few hundred requests) that still cross the 1-day
// observation boundary so the controller optimizes at least once.
WorkloadProfile SmallProfile(const std::string& name, uint64_t seed) {
  WorkloadProfile p;
  p.name = name;
  p.seed = seed;
  p.duration = 2 * kDay;
  p.dataset_bytes = 50ull * 1000 * 1000;
  p.mean_object_bytes = 500ull * 1000;
  p.get_bytes = 300ull * 1000 * 1000;
  p.zipf_alpha = 0.7;
  return p;
}

Trace SmallTrace(const std::string& name, uint64_t seed) {
  const WorkloadProfile p = SmallProfile(name, seed);
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

EngineConfig SmallConfig(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  if (a == Approach::kStaticTtl) {
    cfg.static_ttl = 12 * kHour;
  }
  return cfg;
}

std::string TempStoreDir(const char* stem) {
  const std::string dir = testing::TempDir() + "/" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RunResultSerializationTest, RoundTripPreservesEveryField) {
  const Trace t = SmallTrace("ser", 11);
  EngineConfig cfg = SmallConfig(Approach::kMacaronNoCluster);
  cfg.measure_latency = true;
  const RunResult r = ReplayEngine(cfg).Run(t);
  const std::string blob = SerializeRunResult(r);
  RunResult back;
  ASSERT_TRUE(DeserializeRunResult(blob, &back));
  EXPECT_EQ(back.trace_name, r.trace_name);
  EXPECT_EQ(back.approach_name, r.approach_name);
  for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
    EXPECT_EQ(back.costs.Get(static_cast<CostCategory>(c)),
              r.costs.Get(static_cast<CostCategory>(c)))
        << c;
  }
  EXPECT_EQ(back.gets, r.gets);
  EXPECT_EQ(back.cluster_hits, r.cluster_hits);
  EXPECT_EQ(back.osc_hits, r.osc_hits);
  EXPECT_EQ(back.remote_fetches, r.remote_fetches);
  EXPECT_EQ(back.delayed_hits, r.delayed_hits);
  EXPECT_EQ(back.egress_bytes, r.egress_bytes);
  EXPECT_EQ(back.reconfigs, r.reconfigs);
  EXPECT_EQ(back.total_reconfig_seconds, r.total_reconfig_seconds);
  EXPECT_EQ(back.total_analysis_seconds, r.total_analysis_seconds);
  EXPECT_EQ(back.first_optimized_capacity, r.first_optimized_capacity);
  EXPECT_EQ(back.first_optimized_ttl, r.first_optimized_ttl);
  EXPECT_EQ(back.mean_stored_bytes, r.mean_stored_bytes);
  EXPECT_EQ(back.dataset_bytes, r.dataset_bytes);
  EXPECT_EQ(back.osc_capacity_timeline, r.osc_capacity_timeline);
  EXPECT_EQ(back.cluster_nodes_timeline, r.cluster_nodes_timeline);
  EXPECT_EQ(back.ttl_timeline, r.ttl_timeline);
  // Latency samples in insertion order: quantiles and means match exactly.
  ASSERT_EQ(back.latency_ms.samples().size(), r.latency_ms.samples().size());
  EXPECT_EQ(back.latency_ms.samples(), r.latency_ms.samples());
  // And the round trip of the round trip is byte-stable.
  EXPECT_EQ(SerializeRunResult(back), blob);
}

TEST(RunResultSerializationTest, RejectsCorruptBlobs) {
  const Trace t = SmallTrace("corrupt", 5);
  const RunResult r = ReplayEngine(SmallConfig(Approach::kRemote)).Run(t);
  const std::string blob = SerializeRunResult(r);
  RunResult out;
  EXPECT_FALSE(DeserializeRunResult("", &out));
  EXPECT_FALSE(DeserializeRunResult("nonsense", &out));
  EXPECT_FALSE(DeserializeRunResult(blob.substr(0, blob.size() / 2), &out));
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeRunResult(bad_magic, &out));
  std::string trailing = blob + "x";
  EXPECT_FALSE(DeserializeRunResult(trailing, &out));
}

TEST(FingerprintTest, SensitiveToResultAffectingFields) {
  const EngineConfig base = SmallConfig(Approach::kMacaronNoCluster);
  const sweep::Fingerprint fp = sweep::FingerprintEngineConfig(base);
  EXPECT_EQ(sweep::FingerprintEngineConfig(base), fp) << "must be stable";

  EngineConfig c = base;
  c.seed ^= 1;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
  c = base;
  c.window += kMinute;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
  c = base;
  c.approach = Approach::kRemote;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
  c = base;
  c.prices = c.prices.WithEgressScale(0.5);
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
  c = base;
  c.packing.packing_enabled = !c.packing.packing_enabled;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
  c = base;
  c.measure_latency = !c.measure_latency;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), fp);
}

TEST(FingerprintTest, AnalyzerThreadsDoesNotChangeTheKey) {
  // PR 1 guarantees bit-identical analysis at any analyzer thread count, so
  // results are shared across it.
  EngineConfig a = SmallConfig(Approach::kMacaronNoCluster);
  EngineConfig b = a;
  a.analyzer_threads = 1;
  b.analyzer_threads = 16;
  EXPECT_EQ(sweep::FingerprintEngineConfig(a), sweep::FingerprintEngineConfig(b));
}

TEST(FingerprintTest, ShardKnobs) {
  // num_shards is structural (different routing, per-shard capacity splits,
  // RNG streams) and must change the key; shard_threads is execution-only
  // (shards share no mutable state) and must not.
  const EngineConfig base = SmallConfig(Approach::kMacaronNoCluster);
  EngineConfig c = base;
  c.num_shards = 8;
  EXPECT_NE(sweep::FingerprintEngineConfig(c), sweep::FingerprintEngineConfig(base));
  c = base;
  c.shard_threads = 8;
  EXPECT_EQ(sweep::FingerprintEngineConfig(c), sweep::FingerprintEngineConfig(base));
}

TEST(FingerprintTest, TraceContentAndProfileIdentities) {
  const Trace t1 = SmallTrace("fp", 21);
  Trace t2 = t1;
  const sweep::Fingerprint f1 = sweep::FingerprintTraceContent(t1);
  EXPECT_EQ(sweep::FingerprintTraceContent(t2), f1);
  t2.requests[0].size += 1;
  EXPECT_NE(sweep::FingerprintTraceContent(t2), f1);

  const WorkloadProfile p1 = SmallProfile("fp", 21);
  WorkloadProfile p2 = p1;
  EXPECT_EQ(sweep::FingerprintWorkloadProfile(p2), sweep::FingerprintWorkloadProfile(p1));
  p2.zipf_alpha += 0.01;
  EXPECT_NE(sweep::FingerprintWorkloadProfile(p2), sweep::FingerprintWorkloadProfile(p1));
}

// The scheduler's core guarantee: results collected by submission index are
// bit-identical to direct serial engine runs at every thread count. The
// grid covers both engines and named jobs resolved through the trace
// provider, over two traces whose unique_bytes differ: every engine job
// replays on its trace's one shared stats pass, and stats handed to the
// wrong trace would move its dataset_bytes.
TEST(SweepSchedulerTest, BitIdenticalAcrossThreadCounts) {
  struct Job {
    std::shared_ptr<const Trace> trace;
    EngineConfig cfg;
    sweep::JobEngine engine;
    // Nonzero: submitted by name under this identity and resolved through
    // the trace provider.
    sweep::Fingerprint named_identity;
  };
  std::map<std::string, std::shared_ptr<const Trace>> by_name;
  std::vector<Job> jobs;
  for (uint64_t seed : {1ull, 2ull}) {
    const std::string name = "det" + std::to_string(seed);
    auto trace = std::make_shared<const Trace>(SmallTrace(name, seed));
    by_name.emplace(name, trace);
    for (Approach a : {Approach::kRemote, Approach::kMacaronNoCluster, Approach::kStaticTtl}) {
      jobs.push_back({trace, SmallConfig(a), sweep::JobEngine::kReplay, {}});
    }
    for (Approach a : {Approach::kMacaronNoCluster, Approach::kMacaronTtl}) {
      jobs.push_back({trace, SmallConfig(a), sweep::JobEngine::kEvent, {}});
    }
    const sweep::Fingerprint identity = sweep::FingerprintWorkloadProfile(SmallProfile(name, seed));
    for (sweep::JobEngine engine : {sweep::JobEngine::kReplay, sweep::JobEngine::kEvent}) {
      jobs.push_back({trace, SmallConfig(Approach::kMacaron), engine, identity});
    }
  }
  ASSERT_NE(ComputeStats(*by_name.at("det1")).unique_bytes,
            ComputeStats(*by_name.at("det2")).unique_bytes);
  // Serial reference: the engines invoked directly, in order.
  std::vector<std::string> reference;
  for (const Job& j : jobs) {
    reference.push_back(SerializeRunResult(j.engine == sweep::JobEngine::kEvent
                                               ? EventEngine(j.cfg).Run(*j.trace)
                                               : ReplayEngine(j.cfg).Run(*j.trace)));
  }
  for (int threads : {1, 2, 8}) {
    sweep::SweepScheduler::Options opt;
    opt.threads = threads;
    opt.trace_provider = [&by_name](const std::string& name) { return by_name.at(name); };
    sweep::SweepScheduler sched(std::move(opt));
    std::vector<size_t> ids;
    for (const Job& j : jobs) {
      sweep::SweepJobSpec spec;
      spec.trace_name = j.trace->name;
      spec.trace_identity = j.named_identity;
      if (j.named_identity.IsZero()) {
        spec.trace = j.trace;
      }
      spec.config = j.cfg;
      spec.engine = j.engine;
      ids.push_back(sched.Submit(std::move(spec)));
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(SerializeRunResult(sched.Result(ids[i])), reference[i])
          << "threads=" << threads << " job=" << i;
    }
  }
}

TEST(SweepSchedulerTest, DeduplicatesIdenticalSubmissions) {
  auto trace = std::make_shared<const Trace>(SmallTrace("dedup", 3));
  sweep::SweepScheduler::Options opt;
  opt.threads = 2;
  sweep::SweepScheduler sched(std::move(opt));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.config = SmallConfig(Approach::kRemote);
  const size_t first = sched.Submit(spec);
  const size_t second = sched.Submit(spec);
  EXPECT_EQ(SerializeRunResult(sched.Result(first)), SerializeRunResult(sched.Result(second)));
  EXPECT_FALSE(sched.Metrics(first).deduplicated);
  EXPECT_TRUE(sched.Metrics(second).deduplicated);
  const sweep::SweepStats stats = sched.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.unique, 1u);
  EXPECT_EQ(stats.executed, 1u);
}

TEST(SweepSchedulerTest, PersistentStoreServesSecondProcess) {
  const std::string dir = TempStoreDir("sweep_store_test");
  const WorkloadProfile profile = SmallProfile("persist", 9);
  const sweep::Fingerprint identity = sweep::FingerprintWorkloadProfile(profile);
  std::atomic<int> generations{0};
  auto provider = [&](const std::string& name) -> std::shared_ptr<const Trace> {
    static auto* memo = new std::map<std::string, std::shared_ptr<const Trace>>();
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(name);
    if (it == memo->end()) {
      generations.fetch_add(1);
      it = memo->emplace(name, std::make_shared<const Trace>(SmallTrace("persist", 9))).first;
    }
    return it->second;
  };
  sweep::SweepJobSpec spec;
  spec.trace_name = "persist";
  spec.trace_identity = identity;
  spec.config = SmallConfig(Approach::kMacaronNoCluster);

  std::string first_blob;
  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    opt.trace_provider = provider;
    sweep::SweepScheduler sched(std::move(opt));
    const size_t id = sched.Submit(spec);
    first_blob = SerializeRunResult(sched.Result(id));
    EXPECT_FALSE(sched.Metrics(id).cache_hit);
    EXPECT_EQ(sched.stats().executed, 1u);
    EXPECT_EQ(generations.load(), 1);
  }
  {
    // "Second process": a fresh scheduler on the same directory. The job
    // must be served from disk — no simulation, no trace generation.
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    opt.trace_provider = provider;
    sweep::SweepScheduler sched(std::move(opt));
    const size_t id = sched.Submit(spec);
    EXPECT_EQ(SerializeRunResult(sched.Result(id)), first_blob);
    EXPECT_TRUE(sched.Metrics(id).cache_hit);
    const sweep::SweepStats stats = sched.stats();
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.store_hits, 1u);
    EXPECT_EQ(generations.load(), 1) << "cache hit must not regenerate the trace";
  }
  std::filesystem::remove_all(dir);
}

// A kOracle job is Oracular (§5.4): the exact DP on the job's price book
// with GET/PUT prices zeroed. It must match a direct run on the op-free
// book, and a kExactOracle job submitted with that book, field by field.
TEST(SweepSchedulerTest, OracleJobMatchesDirectRun) {
  auto trace = std::make_shared<const Trace>(SmallTrace("oracle", 17));
  EngineConfig cfg = SmallConfig(Approach::kRemote);
  cfg.measure_latency = true;
  EngineConfig op_free = cfg;
  op_free.prices = cfg.prices.OpFree();
  const ExactOracleResult direct = sweep::RunExactOracleWithConfig(*trace, op_free);
  ASSERT_GT(direct.osc_hits, 0u);
  EXPECT_EQ(direct.costs.Get(CostCategory::kOperation), 0.0);

  sweep::SweepScheduler::Options opt;
  opt.threads = 1;
  sweep::SweepScheduler sched(std::move(opt));
  const auto submit = [&](const EngineConfig& config, sweep::JobEngine engine) {
    sweep::SweepJobSpec spec;
    spec.trace = trace;
    spec.trace_name = trace->name;
    spec.config = config;
    spec.engine = engine;
    return sched.Submit(std::move(spec));
  };
  const size_t oracle_id = submit(cfg, sweep::JobEngine::kOracle);
  const size_t exact_id = submit(op_free, sweep::JobEngine::kExactOracle);
  EXPECT_EQ(sched.Result(oracle_id).approach_name, "oracular");
  EXPECT_EQ(sched.Result(exact_id).approach_name, "exact-oracle");
  for (const size_t id : {oracle_id, exact_id}) {
    const RunResult& via = sched.Result(id);
    for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
      EXPECT_EQ(via.costs.Get(static_cast<CostCategory>(c)),
                direct.costs.Get(static_cast<CostCategory>(c)))
          << "job " << id << " category " << c;
    }
    EXPECT_EQ(via.gets, direct.osc_hits + direct.remote_fetches);
    EXPECT_EQ(via.osc_hits, direct.osc_hits);
    EXPECT_EQ(via.remote_fetches, direct.remote_fetches);
    EXPECT_EQ(via.egress_bytes, direct.egress_bytes);
    EXPECT_EQ(via.mean_stored_bytes, direct.mean_stored_bytes);
    EXPECT_EQ(via.latency_ms.samples(), direct.latency_ms.samples());
  }
}

TEST(SweepSchedulerTest, RejectsUnresolvableSpecs) {
  sweep::SweepScheduler::Options opt;
  opt.threads = 1;
  sweep::SweepScheduler sched(std::move(opt));
  sweep::SweepJobSpec empty;
  EXPECT_THROW(sched.Submit(empty), std::invalid_argument);
  sweep::SweepJobSpec named_only;
  named_only.trace_name = "nope";  // no provider configured
  EXPECT_THROW(sched.Submit(named_only), std::invalid_argument);
}

// The third memo layer: engine jobs on one trace share one ComputeStats
// pass, and jobs served from the store run none.
TEST(SweepSchedulerTest, OneStatsPassPerTrace) {
  std::vector<sweep::SweepJobSpec> specs;
  for (uint64_t seed : {4ull, 5ull}) {
    auto trace = std::make_shared<const Trace>(SmallTrace("pass" + std::to_string(seed), seed));
    const auto add = [&](Approach a, sweep::JobEngine engine) {
      sweep::SweepJobSpec spec;
      spec.trace = trace;
      spec.trace_name = trace->name;
      spec.config = SmallConfig(a);
      spec.engine = engine;
      specs.push_back(std::move(spec));
    };
    add(Approach::kRemote, sweep::JobEngine::kReplay);
    add(Approach::kMacaronNoCluster, sweep::JobEngine::kReplay);
    add(Approach::kMacaronNoCluster, sweep::JobEngine::kEvent);
    add(Approach::kRemote, seed == 4 ? sweep::JobEngine::kOracle : sweep::JobEngine::kExactOracle);
  }
  for (int threads : {1, 2}) {
    const std::string dir = TempStoreDir("sweep_stats_pass_test");
    for (const bool warm : {false, true}) {
      sweep::SweepScheduler::Options opt;
      opt.threads = threads;
      opt.store_dir = dir;
      sweep::SweepScheduler sched(std::move(opt));
      std::vector<size_t> ids;
      for (const sweep::SweepJobSpec& spec : specs) {
        ids.push_back(sched.Submit(spec));
      }
      for (const size_t id : ids) {
        sched.Result(id);
      }
      const sweep::SweepStats stats = sched.stats();
      EXPECT_EQ(stats.executed, warm ? 0u : specs.size()) << "threads=" << threads;
      EXPECT_EQ(stats.store_hits, warm ? specs.size() : 0u) << "threads=" << threads;
      EXPECT_EQ(stats.stats_passes, warm ? 0u : 2u) << "threads=" << threads << " warm=" << warm;
    }
    std::filesystem::remove_all(dir);
  }
}

// Submit hashes an in-memory trace that comes without an identity once per
// trace object while the object lives. A freed trace's entry is never
// reused: an equal trace allocated later, perhaps at the same address, is
// hashed afresh and gets the same identity.
TEST(SweepSchedulerTest, HashesEachLiveTraceOnce) {
  sweep::SweepScheduler::Options opt;
  opt.threads = 1;  // jobs run inline, so the scheduler holds no trace afterwards
  sweep::SweepScheduler sched(std::move(opt));
  const auto submit = [&](const std::shared_ptr<const Trace>& trace, Approach approach) {
    sweep::SweepJobSpec spec;
    spec.trace = trace;
    spec.trace_name = trace->name;
    spec.config = SmallConfig(approach);
    return sched.Submit(std::move(spec));
  };
  auto a = std::make_shared<const Trace>(SmallTrace("hash-a", 31));
  auto b = std::make_shared<const Trace>(SmallTrace("hash-b", 32));
  for (const Approach approach :
       {Approach::kRemote, Approach::kMacaronNoCluster, Approach::kRemote}) {
    submit(a, approach);
    submit(b, approach);
  }
  EXPECT_EQ(sched.stats().content_hashes, 2u);
  EXPECT_EQ(sched.stats().unique, 4u);

  std::weak_ptr<const Trace> freed = a;
  a.reset();
  ASSERT_TRUE(freed.expired());
  auto again = std::make_shared<const Trace>(SmallTrace("hash-a", 31));
  const size_t id = submit(again, Approach::kRemote);
  EXPECT_EQ(sched.stats().content_hashes, 3u);
  EXPECT_TRUE(sched.Metrics(id).deduplicated) << "an equal trace keeps its identity";
  submit(b, Approach::kMacaronNoCluster);
  EXPECT_EQ(sched.stats().content_hashes, 3u);
}

// Submit rejects a config its engine would stop the whole process for
// (a MACARON_CHECK on a pool worker) with std::invalid_argument naming the
// field. Nothing is queued, and the scheduler goes on serving valid jobs.
void ExpectRejectedAtSubmit(const EngineConfig& cfg, sweep::JobEngine engine,
                            const std::string& field) {
  auto trace = std::make_shared<const Trace>(SmallTrace("reject", 21));
  sweep::SweepScheduler::Options opt;
  opt.threads = 2;
  sweep::SweepScheduler sched(std::move(opt));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.config = cfg;
  spec.engine = engine;
  try {
    sched.Submit(spec);
    ADD_FAILURE() << "accepted a config with a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  EXPECT_EQ(sched.stats().submitted, 0u);
  spec.config = SmallConfig(Approach::kRemote);
  spec.engine = sweep::JobEngine::kReplay;
  EXPECT_EQ(sched.Result(sched.Submit(spec)).approach_name, "remote");
}

TEST(SweepSchedulerTest, RejectsNonPositiveWindow) {
  EngineConfig cfg = SmallConfig(Approach::kMacaronNoCluster);
  cfg.window = 0;
  ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kReplay, "config.window");
}

TEST(SweepSchedulerTest, RejectsOracleJobWithNonPositiveWindow) {
  EngineConfig cfg = SmallConfig(Approach::kRemote);
  cfg.window = -kMinute;
  ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kOracle, "config.window");
}

TEST(SweepSchedulerTest, RejectsEventJobOnUnsupportedApproach) {
  ExpectRejectedAtSubmit(SmallConfig(Approach::kRemote), sweep::JobEngine::kEvent,
                         "config.approach");
}

TEST(SweepSchedulerTest, RejectsStaticTtlWithoutTtl) {
  EngineConfig cfg = SmallConfig(Approach::kStaticTtl);
  cfg.static_ttl = 0;
  ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kReplay, "config.static_ttl");
}

TEST(SweepSchedulerTest, RejectsStaticCapacityWithoutCapacity) {
  EngineConfig cfg = SmallConfig(Approach::kStaticCapacity);
  cfg.static_capacity_bytes = 0;
  ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kReplay, "config.static_capacity_bytes");
}

TEST(SweepSchedulerTest, RejectsNegativeObservationOnMacaron) {
  for (const Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster, Approach::kMacaronTtl}) {
    EngineConfig cfg = SmallConfig(a);
    cfg.observation = -kHour;
    ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kReplay, "config.observation");
    ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kEvent, "config.observation");
  }
}

TEST(SweepSchedulerTest, RejectsAnalyzerThreadsOutOfRangeOnControllerApproaches) {
  for (const Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster, Approach::kMacaronTtl,
                           Approach::kEcpc, Approach::kFlashEcpc}) {
    for (const int threads : {-1, 1025}) {
      EngineConfig cfg = SmallConfig(a);
      cfg.analyzer_threads = threads;
      ExpectRejectedAtSubmit(cfg, sweep::JobEngine::kReplay, "config.analyzer_threads");
    }
  }
}

// --- Hash-once pipeline, sweep-level checks ---

// The analyzer seed salts the banks' admission hashes, and since the
// hash-once pipeline those same salted hashes index the mini-caches. At
// full sampling (ratio 1.0) every request is admitted regardless of salt,
// so two analyzers differing only in seed feed identical streams to their
// banks — in different hash domains. Bit-identical aggregated curves prove
// the index hash never leaks into results, which is why the hash-once
// change did not require bumping kSweepVersionSalt.
TEST(HashOncePipelineTest, AnalyzerCurvesIndependentOfHashDomain) {
  const Trace t = SmallTrace("hashdomain", 23);
  AnalyzerConfig base;
  base.sampling_ratio = 1.0;
  base.enable_ttl = true;
  base.num_minicaches = 8;
  base.max_capacity_bytes = 50ull * 1000 * 1000;
  AnalyzerConfig alt = base;
  base.seed = 1;
  alt.seed = 0xfeedfaceull;
  WorkloadAnalyzer a(base, /*latency=*/nullptr);
  WorkloadAnalyzer b(alt, /*latency=*/nullptr);

  const ReplayBatch chunk = ToChunk(t.requests);
  int windows = 0;
  for (size_t end = 200; end <= chunk.size(); end += 200) {
    a.ProcessColumns(chunk, end - 200, end);
    b.ProcessColumns(chunk, end - 200, end);
    const AnalyzerReport ra = a.EndWindow(15 * kMinute);
    const AnalyzerReport rb = b.EndWindow(15 * kMinute);
    ++windows;
    ASSERT_EQ(ra.aggregated_mrc.ys(), rb.aggregated_mrc.ys()) << "window " << windows;
    ASSERT_EQ(ra.aggregated_bmc.ys(), rb.aggregated_bmc.ys()) << "window " << windows;
    ASSERT_TRUE(ra.aggregated_ttl_mrc.has_value());
    ASSERT_TRUE(rb.aggregated_ttl_mrc.has_value());
    ASSERT_EQ(ra.aggregated_ttl_mrc->ys(), rb.aggregated_ttl_mrc->ys()) << "window " << windows;
    ASSERT_EQ(ra.aggregated_ttl_bmc->ys(), rb.aggregated_ttl_bmc->ys()) << "window " << windows;
    ASSERT_EQ(ra.aggregated_ttl_capacity->ys(), rb.aggregated_ttl_capacity->ys())
        << "window " << windows;
    ASSERT_EQ(ra.window_requests, rb.window_requests);
    ASSERT_EQ(ra.expected_window_reads, rb.expected_window_reads);
    ASSERT_EQ(ra.expected_window_writes, rb.expected_window_writes);
  }
  EXPECT_GE(windows, 2) << "trace too small to exercise multiple windows";
}

// Both engines hash each request exactly once at ingest and feed that hash
// to the cluster/OSC/TTL-shadow layers. Results must remain a pure function
// of (trace, config) — byte-identical serialized RunResults across repeated
// runs — for the persistent result store to stay sound without a salt bump.
TEST(HashOncePipelineTest, BothEnginesByteStableAcrossRuns) {
  const Trace t = SmallTrace("hashdet", 29);
  for (const Approach a : {Approach::kMacaronNoCluster, Approach::kMacaron}) {
    const EngineConfig cfg = SmallConfig(a);
    EXPECT_EQ(SerializeRunResult(ReplayEngine(cfg).Run(t)),
              SerializeRunResult(ReplayEngine(cfg).Run(t)))
        << "replay engine, approach " << ApproachName(a);
    EXPECT_EQ(SerializeRunResult(EventEngine(cfg).Run(t)),
              SerializeRunResult(EventEngine(cfg).Run(t)))
        << "event engine, approach " << ApproachName(a);
  }
}

// Guard against an accidental salt bump sneaking in with unrelated edits:
// a bump invalidates every persisted result, so it must be deliberate.
// v1 -> v2 was: the analyzer now excludes deletes from mean_object_bytes and
// the cluster sizer recomputes capacity/latency after the max_nodes clamp —
// both change simulated results, so cached v1 entries had to be retired.
// v3 -> v4 was: the event engine's analyzer grid, analyzer policy and
// realized-cost sum now match the replay engine's, which moves event engine
// results.
// v4 -> v5 was: kOracle jobs run the exact DP on the op-free price book
// instead of the per-gap keep rule, which moves their dollars in the last
// bits, and OSC garbage collection visits due blocks in ascending block id,
// which moves packed-OSC results.
TEST(HashOncePipelineTest, SweepVersionSaltDeliberate) {
  EXPECT_EQ(sweep::kSweepVersionSalt, "macaron-sweep-v5");
}

TEST(ResultStoreTest, DisabledStoreIsInert) {
  sweep::ResultStore store("");
  RunResult r;
  EXPECT_FALSE(store.Load("00", &r));
  store.Store("00", r);  // no crash, no file
  EXPECT_FALSE(store.Load("00", &r));
}

TEST(ResultStoreTest, RejectsCorruptedFiles) {
  const std::string dir = TempStoreDir("store_corrupt");
  sweep::ResultStore store(dir);
  ASSERT_TRUE(store.enabled());

  RunResult r;
  r.trace_name = "corrupt-trace";
  r.approach_name = "macaron";
  r.gets = 123;
  r.costs.Add(CostCategory::kEgress, 1.5);
  ASSERT_TRUE(store.Store("aa", r));
  RunResult loaded;
  ASSERT_TRUE(store.Load("aa", &loaded));
  EXPECT_EQ(loaded.gets, r.gets);

  const std::string path = dir + "/aa.run";
  const auto read_file = [&path]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write_file = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = read_file();
  ASSERT_GT(good.size(), 32u);  // magic + size + checksum + payload

  // A flipped payload bit fails the checksum.
  std::string flipped = good;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x01);
  write_file(flipped);
  EXPECT_FALSE(store.Load("aa", &loaded));

  // A truncated file fails the size check.
  write_file(good.substr(0, good.size() - 1));
  EXPECT_FALSE(store.Load("aa", &loaded));

  // Trailing bytes mean the file was not written by Store.
  write_file(good + "x");
  EXPECT_FALSE(store.Load("aa", &loaded));

  // A foreign (pre-framing or arbitrary) file fails the magic check — the
  // store must not trust any <fp>.run file that merely exists.
  write_file(SerializeRunResult(r));
  EXPECT_FALSE(store.Load("aa", &loaded));

  // The original framed bytes still load.
  write_file(good);
  EXPECT_TRUE(store.Load("aa", &loaded));
  EXPECT_EQ(loaded.gets, r.gets);
  EXPECT_EQ(loaded.trace_name, r.trace_name);
}

TEST(ResultStoreTest, CorruptFileTriggersReExecution) {
  // End-to-end: a scheduler pointed at a store whose cached file is corrupt
  // must recompute the job (miss), not fail or return garbage.
  const std::string dir = TempStoreDir("store_corrupt_sched");
  auto trace = std::make_shared<const Trace>(SmallTrace("corrupt-e2e", 31));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.config = SmallConfig(Approach::kMacaronNoCluster);

  std::string first_blob;
  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    sweep::SweepScheduler sched(std::move(opt));
    first_blob = SerializeRunResult(sched.Result(sched.Submit(spec)));
  }

  // Corrupt every cached file in the store.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    sweep::SweepScheduler sched(std::move(opt));
    const size_t id = sched.Submit(spec);
    EXPECT_EQ(SerializeRunResult(sched.Result(id)), first_blob)
        << "re-executed result must match the original run";
    EXPECT_FALSE(sched.Metrics(id).cache_hit) << "corrupt file must not be served";
    EXPECT_EQ(sched.stats().store_hits, 0u);
    EXPECT_EQ(sched.stats().executed, 1u);
  }
  std::filesystem::remove_all(dir);
}

// Peak resident set of this process so far, in KiB (Linux ru_maxrss).
long PeakRssKib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(ResultStoreTest, HugeDeclaredSizeIsACheapMiss) {
  // A bare 24-byte header declaring a 2^32 - 1 byte payload must read as a
  // miss without sizing a buffer from the header: the declared size is
  // checked against the file first, so the Load costs no memory, and the
  // scheduler re-executes the job.
  const std::string dir = TempStoreDir("store_huge_header");
  auto trace = std::make_shared<const Trace>(SmallTrace("huge-header", 37));
  sweep::SweepJobSpec spec;
  spec.trace = trace;
  spec.trace_name = trace->name;
  spec.config = SmallConfig(Approach::kMacaronNoCluster);

  std::string first_blob;
  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    sweep::SweepScheduler sched(std::move(opt));
    first_blob = SerializeRunResult(sched.Result(sched.Submit(spec)));
  }

  std::string header = "MRSF0001";
  const uint64_t declared = (1ull << 32) - 1;
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<char>((declared >> (8 * i)) & 0xff));
  }
  header.append(8, '\0');  // checksum
  ASSERT_EQ(header.size(), 24u);
  std::vector<std::string> keys;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    keys.push_back(entry.path().stem().string());
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
  }
  ASSERT_FALSE(keys.empty());

  {
    sweep::ResultStore store(dir);
    RunResult loaded;
    const long before_kib = PeakRssKib();
    for (const std::string& key : keys) {
      EXPECT_FALSE(store.Load(key, &loaded)) << key;
    }
    EXPECT_LT(PeakRssKib() - before_kib, 64 * 1024) << "Load sized a buffer from the header";
    EXPECT_EQ(store.misses(), keys.size());
  }

  {
    sweep::SweepScheduler::Options opt;
    opt.threads = 1;
    opt.store_dir = dir;
    sweep::SweepScheduler sched(std::move(opt));
    const size_t id = sched.Submit(spec);
    EXPECT_EQ(SerializeRunResult(sched.Result(id)), first_blob);
    EXPECT_FALSE(sched.Metrics(id).cache_hit);
    EXPECT_EQ(sched.stats().store_hits, 0u);
    EXPECT_EQ(sched.stats().executed, 1u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace macaron
