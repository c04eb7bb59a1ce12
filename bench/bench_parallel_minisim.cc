// Mini-simulation fan-out: wall-clock for one analysis window replayed
// sequentially vs on a 4-worker thread pool (the local analogue of the
// paper's serverless fan-out, §6.3), plus determinism cross-checks. The
// fan-out is shown on S3-FIFO, whose grid points replay independently, and
// on the two-level ALC bank, whose grid points replay independently over
// shared slot ids (see alc_bank.h); LRU banks replay every grid point in
// one pass over a shared recency timeline (see mrc_bank.h), whose window
// time is reported alongside. On a multi-core machine the fan-out
// approaches #workers x for large grids; on a single core it only measures
// the batching overhead, so the speedup is reported, not asserted.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "src/cloudsim/latency.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/zipf.h"
#include "src/minisim/alc_bank.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/trace/request_source.h"

using namespace macaron;

namespace {

Trace MakeTrace(uint64_t objects, uint64_t count) {
  Trace t;
  Rng rng(7);
  ZipfSampler zipf(objects, 0.8);
  t.requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    t.requests.push_back({static_cast<SimTime>(i), zipf.Sample(rng), 4000, Op::kGet});
  }
  return t;
}

template <typename Bank, typename Window>
double RunWindowMs(Bank& bank, const ReplayBatch& chunk, Window& out) {
  const auto start = std::chrono::steady_clock::now();
  bank.ProcessColumns(chunk, 0, chunk.size());
  out = bank.EndWindow();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  bench::PrintHeader("Parallel miniature simulation", "§5.2/§6.3 analogue");
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n\n", cores);

  const ReplayBatch stream = ToChunk(MakeTrace(200'000, 2'000'000).requests);
  const auto grid = UniformSizeGrid(1'000'000, 400'000'000, 16);
  constexpr double kRatio = 0.2;
  constexpr int kWorkers = 4;

  std::printf("%-22s %12s %12s\n", "mode", "window(ms)", "speedup");
  {
    MrcBank bank(grid, kRatio, 5, EvictionPolicyKind::kLru);
    WindowCurves curves;
    const double ms = RunWindowMs(bank, stream, curves);
    std::printf("%-22s %12.1f %12s\n", "lru one-pass", ms, "-");
  }
  WindowCurves seq_curves;
  double seq_ms = 0.0;
  {
    MrcBank bank(grid, kRatio, 5, EvictionPolicyKind::kS3Fifo);
    seq_ms = RunWindowMs(bank, stream, seq_curves);
    std::printf("%-22s %12.1f %12s\n", "s3fifo sequential", seq_ms, "1.00x");
  }
  WindowCurves par_curves;
  {
    MrcBank bank(grid, kRatio, 5, EvictionPolicyKind::kS3Fifo);
    ThreadPool pool(kWorkers);
    bank.SetExecution(&pool, /*async=*/false);
    const double par_ms = RunWindowMs(bank, stream, par_curves);
    std::printf("%-22s %12.1f %11.2fx\n", "s3fifo 4 workers", par_ms,
                par_ms > 0.0 ? seq_ms / par_ms : 0.0);
  }

  // The ALC bank fans its grid out the same way; both banks draw their
  // latencies from one seed, in stream order.
  GroundTruthLatency truth(LatencyScenario::kCrossCloudUs);
  FittedLatencyGenerator gen(truth, 200, 9);
  AlcWindow alc_seq;
  double alc_seq_ms = 0.0;
  {
    AlcBank bank(grid, grid.back(), kRatio, 5, &gen, 15);
    alc_seq_ms = RunWindowMs(bank, stream, alc_seq);
    std::printf("%-22s %12.1f %12s\n", "alc sequential", alc_seq_ms, "1.00x");
  }
  AlcWindow alc_par;
  {
    AlcBank bank(grid, grid.back(), kRatio, 5, &gen, 15);
    ThreadPool pool(kWorkers);
    bank.SetExecution(&pool, /*async=*/false);
    const double par_ms = RunWindowMs(bank, stream, alc_par);
    std::printf("%-22s %12.1f %11.2fx\n", "alc 4 workers", par_ms,
                par_ms > 0.0 ? alc_seq_ms / par_ms : 0.0);
  }

  bool identical = seq_curves.mrc.size() == par_curves.mrc.size();
  for (size_t i = 0; identical && i < seq_curves.mrc.size(); ++i) {
    identical = seq_curves.mrc.y(i) == par_curves.mrc.y(i) &&
                seq_curves.bmc.y(i) == par_curves.bmc.y(i);
  }
  bool alc_identical = alc_seq.alc.ys() == alc_par.alc.ys() &&
                       alc_seq.level_counts.size() == alc_par.level_counts.size();
  for (size_t i = 0; alc_identical && i < alc_seq.level_counts.size(); ++i) {
    const AlcLevelCounts& a = alc_seq.level_counts[i];
    const AlcLevelCounts& b = alc_par.level_counts[i];
    alc_identical = a.cluster_hits == b.cluster_hits && a.osc_hits == b.osc_hits &&
                    a.remote_misses == b.remote_misses && a.delayed_hits == b.delayed_hits;
  }
  std::printf("\ncurves bit-identical: %s\n", identical ? "yes" : "NO — BUG");
  std::printf("alc curves bit-identical: %s\n", alc_identical ? "yes" : "NO — BUG");
  if (cores < 2) {
    std::printf("(single hardware thread: speedup reflects scheduling overhead only;\n"
                " expect ~%dx for this 16-point grid on >=%d cores)\n", kWorkers, kWorkers);
  }
  return identical && alc_identical ? 0 : 1;
}
