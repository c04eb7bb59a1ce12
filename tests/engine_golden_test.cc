// Engine goldens: committed digests of every output artifact of both engines.
//
// The suites next to this one compare runs within one build (thread counts,
// trace sources, sync vs async analyzer), so an output change that moves
// every run alike passes them. This test pins the bytes across commits: it
// runs a fixed matrix and compares 64-bit Fnv1a digests of
// SerializeRunResult, DecisionTraceJsonl and MetricsRegistry::Json() with
// tests/golden/engine_matrix.txt.
//
// Matrix: the replay engine under every approach and the event engine under
// the three it supports, each at num_shards {1, 4}, without and with one
// mid-trace price shock, on sharded_engine_test's Zipf and delete-heavy
// traces, with two shard workers and the async analyzer on. Then the
// replay engine's admission bypass (rows labelled replay-bypass): macaron
// and macaron+cc at 0.1% egress, where the bypass engages on both traces
// (at 1% it never does), each at num_shards {1, 4} without a shock.
//
// A change meant to move outputs updates the golden file in the same
// commit, so the diff shows which runs moved. On a mismatch the test prints
// the full table it computed; there is deliberately no regenerate switch.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// Same workloads and per-approach parameters as sharded_engine_test.
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

EngineConfig Config(Approach a, int shards, bool shock) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  cfg.num_shards = shards;
  cfg.shard_threads = 2;
  cfg.async_analyzer = true;
  if (a == Approach::kStaticTtl) {
    cfg.static_ttl = 12 * kHour;
  }
  if (a == Approach::kStaticCapacity) {
    cfg.static_capacity_bytes = 20ull * 1000 * 1000;
  }
  if (shock) {
    // Mid-trace, touching every data-path rate, so both the integral flush
    // and the pending-op charge run at the old prices.
    PriceShock s;
    s.at = kDay;
    s.egress_scale = 3.0;
    s.storage_scale = 2.0;
    s.op_scale = 1.5;
    cfg.price_shocks = {s};
  }
  return cfg;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

EngineConfig BypassConfig(Approach a, int shards, bool bypass) {
  EngineConfig cfg = Config(a, shards, /*shock=*/false);
  cfg.prices = cfg.prices.WithEgressScale(0.001);
  cfg.enable_admission_bypass = bypass;
  return cfg;
}

template <typename Engine>
std::string GoldenLine(const char* label, EngineConfig cfg, const Trace& t) {
  obs::DecisionTrace decisions;
  obs::MetricsRegistry metrics;
  cfg.decision_trace = &decisions;
  cfg.metrics = &metrics;
  const RunResult r = Engine(cfg).Run(t);
  std::ostringstream line;
  line << label << ' ' << ApproachName(cfg.approach) << " shards=" << cfg.num_shards
       << " shock=" << (cfg.price_shocks.empty() ? 0 : 1) << ' ' << t.name
       << " result=" << Hex(Fnv1a(SerializeRunResult(r)))
       << " decisions=" << Hex(Fnv1a(DecisionTraceJsonl(decisions)))
       << " metrics=" << Hex(Fnv1a(metrics.Json()));
  return line.str();
}

std::vector<std::string> ComputeMatrix() {
  const Approach kReplayApproaches[] = {
      Approach::kMacaronNoCluster, Approach::kMacaron,   Approach::kMacaronTtl,
      Approach::kRemote,           Approach::kReplicated, Approach::kEcpc,
      Approach::kFlashEcpc,        Approach::kStaticCapacity, Approach::kStaticTtl};
  const Approach kEventApproaches[] = {Approach::kMacaronNoCluster, Approach::kMacaron,
                                       Approach::kMacaronTtl};
  const Trace traces[] = {ZipfTrace(), DeleteHeavyTrace()};
  std::vector<std::string> lines;
  for (const Trace& t : traces) {
    for (int shards : {1, 4}) {
      for (bool shock : {false, true}) {
        for (Approach a : kReplayApproaches) {
          lines.push_back(GoldenLine<ReplayEngine>("replay", Config(a, shards, shock), t));
        }
        for (Approach a : kEventApproaches) {
          lines.push_back(GoldenLine<EventEngine>("event", Config(a, shards, shock), t));
        }
      }
    }
  }
  for (const Trace& t : traces) {
    for (int shards : {1, 4}) {
      for (Approach a : {Approach::kMacaronNoCluster, Approach::kMacaron}) {
        lines.push_back(
            GoldenLine<ReplayEngine>("replay-bypass", BypassConfig(a, shards, true), t));
        // A row equal to the same run without the bypass would pin nothing.
        EXPECT_NE(lines.back(), GoldenLine<ReplayEngine>("replay-bypass",
                                                         BypassConfig(a, shards, false), t));
      }
    }
  }
  return lines;
}

std::vector<std::string> ReadGolden(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(EngineGoldenTest, EveryArtifactMatchesTheCommittedDigests) {
  const std::string path = MACARON_GOLDEN_DIR "/engine_matrix.txt";
  const std::vector<std::string> golden = ReadGolden(path);
  ASSERT_FALSE(golden.empty()) << "cannot read " << path;
  const std::vector<std::string> actual = ComputeMatrix();

  std::ostringstream moved;
  for (size_t i = 0; i < actual.size(); ++i) {
    if (i >= golden.size() || actual[i] != golden[i]) {
      moved << "  actual: " << actual[i] << '\n'
            << "  golden: " << (i < golden.size() ? golden[i] : "(missing)") << '\n';
    }
  }
  if (golden.size() > actual.size()) {
    moved << "  golden has " << golden.size() - actual.size() << " extra lines\n";
  }
  if (!moved.str().empty()) {
    std::ostringstream table;
    for (const std::string& line : actual) {
      table << line << '\n';
    }
    ADD_FAILURE() << "engine outputs differ from " << path << ":\n"
                  << moved.str() << "\nfull actual table:\n"
                  << table.str();
  }
}

}  // namespace
}  // namespace macaron
