// Streaming replay suite (DESIGN.md "Out-of-core trace pipeline").
//
// The load-bearing guarantee: where the requests come from is execution-
// only. Replaying a trace through any RequestSource — the in-memory
// adapter at any chunk size, a columnar (MCTC) file, with or without
// decode-ahead, at any shard_threads — must produce bit-identical
// RunResult serializations, decision traces, and metrics JSON to the
// materialized `Run(const Trace&)` path. These tests byte-compare all
// three artifacts on a skewed (Zipf) trace and a delete-heavy trace for
// both engines, with chunk sizes chosen to force many chunk boundaries
// inside windows (and window boundaries inside chunks).
//
// Also here: the synthetic stream generator's chunk-size invariance (the
// delivered request sequence is a pure function of the profile) and the
// stream -> columnar-file capture round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/decision_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/event_engine.h"
#include "src/sim/replay_engine.h"
#include "src/sim/report_io.h"
#include "src/trace/columnar_io.h"
#include "src/trace/request_source.h"
#include "src/trace/splitter.h"
#include "src/trace/stream_source.h"
#include "src/trace/synthetic.h"

namespace macaron {
namespace {

// Forces chunk boundaries to land mid-window (and vice versa): prime, and
// far smaller than the ~30k-request traces below.
constexpr size_t kSmallChunk = 509;

EngineConfig Config(Approach a) {
  EngineConfig cfg;
  cfg.approach = a;
  cfg.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  cfg.num_minicaches = 12;
  return cfg;
}

// ~30k requests: small objects against the sharded-suite byte volumes so
// the differential takes tens of thousands of steps, not hundreds.
Trace ZipfTrace() {
  WorkloadProfile p;
  p.name = "streaming-zipf";
  p.seed = 81;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 16ull * 1000;
  p.get_bytes = 400ull * 1000 * 1000;
  p.put_bytes = 40ull * 1000 * 1000;
  p.zipf_alpha = 0.9;
  return SplitObjects(GenerateTrace(p), p.max_object_bytes);
}

Trace DeleteHeavyTrace() {
  WorkloadProfile p;
  p.name = "streaming-deletes";
  p.seed = 82;
  p.duration = 2 * kDay;
  p.dataset_bytes = 60ull * 1000 * 1000;
  p.mean_object_bytes = 16ull * 1000;
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
};

void ExpectSame(const Artifacts& got, const Artifacts& want, const std::string& label) {
  EXPECT_EQ(got.result, want.result) << label << ": RunResult drifted";
  EXPECT_EQ(got.decisions, want.decisions) << label << ": decision trace drifted";
  EXPECT_EQ(got.metrics, want.metrics) << label << ": metrics drifted";
}

template <typename Engine>
Artifacts RunMaterialized(EngineConfig cfg, const Trace& t, int shards, int threads) {
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
Artifacts RunStreamed(EngineConfig cfg, RequestSource& source, int shards, int threads,
                      bool decode_ahead) {
  cfg.num_shards = shards;
  cfg.shard_threads = threads;
  cfg.stream_decode_ahead = decode_ahead;
  obs::DecisionTrace decisions;
  obs::MetricsRegistry metrics;
  cfg.decision_trace = &decisions;
  cfg.metrics = &metrics;
  const RunResult r = Engine(cfg).Run(source);
  return {SerializeRunResult(r), DecisionTraceJsonl(decisions), metrics.Json()};
}

std::string TempPath(const char* stem) { return testing::TempDir() + "/" + stem; }

// The full source x threading x decode-ahead cross-check for one engine,
// one approach, one trace: every streamed variant must reproduce the
// materialized single-threaded run bit for bit.
template <typename Engine>
void ExpectSourceInvariant(const EngineConfig& cfg, const Trace& t, const char* label) {
  const std::string path = TempPath((std::string(label) + ".mctc").c_str());
  std::string error;
  ASSERT_TRUE(WriteTraceColumnar(t, path, &error, kSmallChunk)) << error;

  const Artifacts want = RunMaterialized<Engine>(cfg, t, /*shards=*/8, /*threads=*/1);
  for (int threads : {1, 8}) {
    for (bool decode_ahead : {false, true}) {
      const std::string tag = std::string(label) + " threads=" + std::to_string(threads) +
                              " decode_ahead=" + (decode_ahead ? "on" : "off");
      TraceSource mem(t, kSmallChunk);
      ExpectSame(RunStreamed<Engine>(cfg, mem, 8, threads, decode_ahead), want,
                 tag + " [memory]");
      auto file = ColumnarTraceSource::Open(path, &error);
      ASSERT_NE(file, nullptr) << error;
      ExpectSame(RunStreamed<Engine>(cfg, *file, 8, threads, decode_ahead), want,
                 tag + " [file]");
    }
  }
  std::remove(path.c_str());
}

TEST(StreamingReplayEngineTest, SourceNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronTtl}) {
    const EngineConfig cfg = Config(a);
    ExpectSourceInvariant<ReplayEngine>(
        cfg, zipf, (std::string("replay-zipf-") + ApproachName(a)).c_str());
    ExpectSourceInvariant<ReplayEngine>(
        cfg, deletes, (std::string("replay-del-") + ApproachName(a)).c_str());
  }
}

TEST(StreamingEventEngineTest, SourceNeverChangesAnyOutputBit) {
  const Trace zipf = ZipfTrace();
  const Trace deletes = DeleteHeavyTrace();
  for (Approach a : {Approach::kMacaron, Approach::kMacaronTtl}) {
    const EngineConfig cfg = Config(a);
    ExpectSourceInvariant<EventEngine>(
        cfg, zipf, (std::string("event-zipf-") + ApproachName(a)).c_str());
    ExpectSourceInvariant<EventEngine>(
        cfg, deletes, (std::string("event-del-") + ApproachName(a)).c_str());
  }
}

TEST(StreamingReplayEngineTest, SameSourceReplaysTwice) {
  // Run(RequestSource&) Reset()s the source: replaying through the same
  // source object twice must give identical artifacts (sweep workers and
  // the bench loops reuse sources).
  const Trace t = ZipfTrace();
  const EngineConfig cfg = Config(Approach::kMacaron);
  TraceSource source(t, kSmallChunk);
  const Artifacts first = RunStreamed<ReplayEngine>(cfg, source, 8, 8, true);
  const Artifacts second = RunStreamed<ReplayEngine>(cfg, source, 8, 8, true);
  ExpectSame(second, first, "second replay through one source");
}

StreamProfile SmokeProfile() {
  StreamProfile p;
  p.name = "stream-30k";
  p.num_requests = 30000;
  p.population = 1ull << 14;
  p.zipf_alpha = 0.8;
  p.duration = 2 * kDay;
  p.mean_object_bytes = 64ull * 1000;
  p.object_size_sigma = 0.5;
  p.put_fraction = 0.1;
  p.delete_fraction = 0.05;
  p.drift_period = 6 * kHour;
  p.seed = 7;
  return p;
}

TEST(SyntheticStreamTest, ChunkSizeNeverChangesTheStream) {
  // The generator is sequential: chunk boundaries only slice the same
  // request sequence, so engine outputs are identical at every chunk size
  // and with decode-ahead on or off.
  const StreamProfile p = SmokeProfile();
  const EngineConfig cfg = Config(Approach::kMacaron);
  SyntheticStreamSource baseline_source(p, /*chunk_records=*/512);
  const Artifacts want =
      RunStreamed<ReplayEngine>(cfg, baseline_source, 8, 1, /*decode_ahead=*/false);
  for (size_t chunk : {size_t{1021}, size_t{4096}, kDefaultChunkRecords}) {
    for (bool decode_ahead : {false, true}) {
      SyntheticStreamSource source(p, chunk);
      ExpectSame(RunStreamed<ReplayEngine>(cfg, source, 8, 8, decode_ahead), want,
                 "chunk=" + std::to_string(chunk) +
                     " decode_ahead=" + (decode_ahead ? "on" : "off"));
    }
  }
}

TEST(SyntheticStreamTest, ColumnarCaptureReplaysIdentically) {
  // Capturing a stream into an MCTC file and replaying the file must equal
  // replaying the stream directly — the capture path is how unbounded
  // streams become reusable artifacts.
  const StreamProfile p = SmokeProfile();
  const std::string path = TempPath("captured_stream.mctc");
  {
    SyntheticStreamSource source(p, /*chunk_records=*/2048);
    ColumnarTraceWriter writer(path, p.name, /*chunk_records=*/2048);
    ReplayBatch chunk;
    while (source.FillNext(&chunk)) {
      for (size_t i = 0; i < chunk.size(); ++i) {
        writer.Add(chunk.RowAt(i));
      }
    }
    ASSERT_TRUE(writer.Finish()) << writer.error();
  }
  const EngineConfig cfg = Config(Approach::kMacaron);
  SyntheticStreamSource direct(p);
  const Artifacts want = RunStreamed<ReplayEngine>(cfg, direct, 8, 8, true);
  std::string error;
  auto file = ColumnarTraceSource::Open(path, &error);
  ASSERT_NE(file, nullptr) << error;
  ExpectSame(RunStreamed<ReplayEngine>(cfg, *file, 8, 8, true), want,
             "columnar capture of the stream");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace macaron
