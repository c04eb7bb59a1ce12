// Sharded serving engine suite (DESIGN.md "Sharded serving").
//
// The load-bearing guarantee: `shard_threads` is execution-only. For any
// shard count, running the same configuration with 1, 2, or 8 worker
// threads must produce bit-identical RunResult serializations, decision
// traces, and metrics JSON — the serving shards share no mutable state, and
// every cross-shard fold happens in fixed shard order. These tests
// byte-compare all three artifacts on a skewed (Zipf) trace and a
// delete-heavy trace for both engines.
//
// Also here: regression tests for the two coalescer lifetime bugs fixed
// alongside the sharding work (a mid-flight eviction leaving a stale
// in-flight entry, and the event engine's deferred admission resurrecting a
// deleted object), and the engines' rejection of invalid configs at Run.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  if (a == Approach::kStaticTtl) {
    cfg.static_ttl = 12 * kHour;
  }
  if (a == Approach::kStaticCapacity) {
    cfg.static_capacity_bytes = 20ull * 1000 * 1000;
  }
  return cfg;
}

Trace ZipfTrace() {
  WorkloadProfile p;
  p.name = "sharded-zipf";
  p.seed = 81;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 500ull * 1000;
  p.get_bytes = 400ull * 1000 * 1000;
  p.put_bytes = 40ull * 1000 * 1000;
  p.zipf_alpha = 0.9;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

Trace DeleteHeavyTrace() {
  WorkloadProfile p;
  p.name = "sharded-deletes";
  p.seed = 82;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 500ull * 1000;
  p.get_bytes = 300ull * 1000 * 1000;
  p.put_bytes = 60ull * 1000 * 1000;
  p.delete_fraction = 0.15;
  p.zipf_alpha = 0.7;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

// Every observable artifact of a run, byte-exact.
struct Artifacts {
  std::string result;
  std::string decisions;
  std::string metrics;

  bool operator==(const Artifacts& o) const {
    return result == o.result && decisions == o.decisions && metrics == o.metrics;
  }
};

template <typename Engine>
Artifacts RunWith(EngineConfig cfg, const Trace& t, int shards, int threads) {
  cfg.num_shards = shards;
  cfg.shard_threads = threads;
  obs::DecisionTrace decisions;
  obs::MetricsRegistry metrics;
  cfg.decision_trace = &decisions;
  cfg.metrics = &metrics;
  const RunResult r = Engine(cfg).Run(t);
  return {SerializeRunResult(r), DecisionTraceJsonl(decisions), metrics.Json()};
}

template <typename Engine>
void ExpectThreadCountInvariant(const EngineConfig& cfg, const Trace& t, int shards,
                                const char* label) {
  const Artifacts one = RunWith<Engine>(cfg, t, shards, 1);
  for (int threads : {2, 8}) {
    const Artifacts many = RunWith<Engine>(cfg, t, shards, threads);
    EXPECT_EQ(many.result, one.result)
        << label << ": RunResult drifted at shard_threads=" << threads;
    EXPECT_EQ(many.decisions, one.decisions)
        << label << ": decision trace drifted at shard_threads=" << threads;
    EXPECT_EQ(many.metrics, one.metrics)
        << label << ": metrics drifted at shard_threads=" << threads;
  }
}

TEST(ShardedReplayEngineTest, ThreadCountNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster,
                     Approach::kMacaronTtl, Approach::kEcpc, Approach::kReplicated}) {
    const EngineConfig cfg = Config(a);
    ExpectThreadCountInvariant<ReplayEngine>(cfg, zipf, 8, ApproachName(a));
    ExpectThreadCountInvariant<ReplayEngine>(cfg, deletes, 8, ApproachName(a));
  }
}

TEST(ShardedEventEngineTest, ThreadCountNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a :
       {Approach::kMacaron, Approach::kMacaronNoCluster, Approach::kMacaronTtl}) {
    const EngineConfig cfg = Config(a);
    ExpectThreadCountInvariant<EventEngine>(cfg, zipf, 8, ApproachName(a));
    ExpectThreadCountInvariant<EventEngine>(cfg, deletes, 8, ApproachName(a));
  }
}

TEST(ShardedReplayEngineTest, SingleShardIsThreadInvariantToo) {
  // shard_threads > num_shards is clamped; the default single-shard engine
  // must be untouched by any thread setting.
  const Trace t = ZipfTrace();
  const EngineConfig cfg = Config(Approach::kMacaron);
  ExpectThreadCountInvariant<ReplayEngine>(cfg, t, 1, "macaron+cc S=1");
  ExpectThreadCountInvariant<EventEngine>(cfg, t, 1, "macaron+cc-proto S=1");
}

TEST(ShardedReplayEngineTest, ShardCountIsStructural) {
  // num_shards genuinely changes the simulated deployment (routing, split
  // capacities, per-shard RNG streams) — it is fingerprinted, and its
  // outputs are expected to differ from the unsharded run.
  const Trace t = ZipfTrace();
  const EngineConfig cfg = Config(Approach::kMacaron);
  const Artifacts one = RunWith<ReplayEngine>(cfg, t, 1, 1);
  const Artifacts eight = RunWith<ReplayEngine>(cfg, t, 8, 1);
  EXPECT_NE(eight.result, one.result);
}

TEST(ShardedReplayEngineTest, HitCountersStillPartitionGets) {
  const Trace t = DeleteHeavyTrace();
  const TraceStats s = ComputeStats(t);
  for (Approach a : {Approach::kMacaron, Approach::kMacaronNoCluster}) {
    EngineConfig cfg = Config(a);
    cfg.num_shards = 8;
    cfg.shard_threads = 8;
    const RunResult r = ReplayEngine(cfg).Run(t);
    EXPECT_EQ(r.gets, s.num_gets) << r.approach_name;
    EXPECT_EQ(r.cluster_hits + r.osc_hits + r.remote_fetches + r.delayed_hits, r.gets)
        << r.approach_name;
  }
}

// --- Coalescer lifetime regressions ---

TEST(InflightLifetimeTest, MidFlightEvictionInvalidatesCoalescing) {
  // GET at t=995 starts a remote fetch (hundreds of ms) and admits the
  // object; the t=1000 boundary evicts it (static capacity below the object
  // size). The re-GET at t=1010 lands inside the original fetch window, but
  // the object is gone: it must be a fresh remote fetch, not a delayed hit
  // that coalesces onto the evicted fill and serves nothing.
  EngineConfig cfg = Config(Approach::kStaticCapacity);
  cfg.static_capacity_bytes = 1000;  // below the object size: always evicts
  cfg.window = 1000;
  cfg.observation = 0;
  Trace t;
  t.name = "evict-mid-flight";
  t.requests = {{995, 1, 1'000'000, Op::kGet}, {1010, 1, 1'000'000, Op::kGet}};
  const RunResult r = ReplayEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 2u) << "second GET must re-fetch the evicted object";
  EXPECT_EQ(r.delayed_hits, 0u) << "must not coalesce onto a discarded fill";
}

TEST(InflightLifetimeTest, EventEngineDeleteCancelsPendingAdmission) {
  // GET at t=0 schedules a deferred admission at fetch completion; the
  // DELETE at t=10 arrives first. The admission must be cancelled — an hour
  // later the object must not have resurrected, so the next GET re-fetches.
  EngineConfig cfg = Config(Approach::kMacaronNoCluster);
  Trace t;
  t.name = "delete-mid-flight";
  t.requests = {{0, 1, 1'000'000, Op::kGet},
                {10, 1, 1'000'000, Op::kDelete},
                {kHour, 1, 1'000'000, Op::kGet}};
  const RunResult r = EventEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 2u) << "deleted object must be re-fetched";
  EXPECT_EQ(r.osc_hits, 0u) << "cancelled admission must not resurrect the object";
}

TEST(InflightLifetimeTest, EventEngineUndisturbedFillStillAdmits) {
  // Control for the ticket mechanics: with no delete, the deferred
  // admission must still land (the ticket is claimable exactly once).
  EngineConfig cfg = Config(Approach::kMacaronNoCluster);
  Trace t;
  t.name = "fill-lands";
  t.requests = {{0, 1, 1'000'000, Op::kGet}, {kHour, 1, 1'000'000, Op::kGet}};
  const RunResult r = EventEngine(cfg).Run(t);
  EXPECT_EQ(r.remote_fetches, 1u);
  EXPECT_EQ(r.osc_hits, 1u);
}

// Each config an engine would otherwise abort on is rejected by Run with
// std::invalid_argument naming the field, before any set-up: a direct
// caller gets the same rules as SweepScheduler::Submit. A zero window
// would stall Run's boundary loop forever, so it is rejected for every
// approach, the remote baseline included, which builds no controller.
TEST(EngineConfigValidationTest, DirectRunThrowsNamingTheField) {
  const Trace trace = ZipfTrace();
  const auto expect_rejected = [&](const EngineConfig& cfg, EngineKind engine,
                                   const std::string& field) {
    try {
      if (engine == EngineKind::kEvent) {
        EventEngine(cfg).Run(trace);
      } else {
        ReplayEngine(cfg).Run(trace);
      }
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (const Approach a : {Approach::kRemote, Approach::kMacaron}) {
    EngineConfig cfg = Config(a);
    cfg.window = 0;
    expect_rejected(cfg, EngineKind::kReplay, "config.window");
  }
  EngineConfig cfg = Config(Approach::kMacaron);
  cfg.window = 0;
  expect_rejected(cfg, EngineKind::kEvent, "config.window");
  expect_rejected(Config(Approach::kRemote), EngineKind::kEvent, "config.approach");
  cfg = Config(Approach::kStaticCapacity);
  cfg.static_capacity_bytes = 0;
  expect_rejected(cfg, EngineKind::kReplay, "config.static_capacity_bytes");
  cfg = Config(Approach::kStaticTtl);
  cfg.static_ttl = 0;
  expect_rejected(cfg, EngineKind::kReplay, "config.static_ttl");
  cfg = Config(Approach::kMacaron);
  cfg.observation = -kHour;
  expect_rejected(cfg, EngineKind::kEvent, "config.observation");
  cfg = Config(Approach::kEcpc);
  cfg.analyzer_threads = 1025;
  expect_rejected(cfg, EngineKind::kReplay, "config.analyzer_threads");
}

}  // namespace
}  // namespace macaron
