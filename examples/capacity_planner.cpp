// Capacity planner: an offline what-if tool built on the library's public
// API. Given a workload (a CSV trace or a named synthetic profile), it runs
// the miniature simulation to build the miss-ratio and byte-miss curves,
// then prints the expected-cost curve and the recommended OSC capacity for
// several egress prices — the analysis a storage team would run before
// adopting Macaron.
//
// Usage: capacity_planner [trace.csv | profile-name]   (default: ibm83)

#include <cstdio>
#include <string>

#include "src/controller/optimizer.h"
#include "src/minisim/mrc_bank.h"
#include "src/minisim/size_grid.h"
#include "src/trace/request_source.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

using namespace macaron;

int main(int argc, char** argv) {
  const std::string source = argc > 1 ? argv[1] : "ibm83";
  Trace trace;
  if (source.size() > 4 && source.substr(source.size() - 4) == ".csv") {
    std::string error;
    if (!ReadTraceCsv(source, &trace, &error)) {
      std::fprintf(stderr, "cannot read %s\n", error.c_str());
      return 1;
    }
    trace = SplitObjects(trace, 4'000'000);
  } else {
    const WorkloadProfile p = ProfileByName(source);
    trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  }
  const TraceStats stats = ComputeStats(trace);
  std::printf("workload: %s\n  %s\n\n", source.c_str(), stats.Summary().c_str());

  // Build curves with one miniature simulation pass over the whole trace.
  const double ratio =
      std::clamp(2000.0 / static_cast<double>(stats.unique_objects), 0.05, 1.0);
  const auto grid =
      UniformSizeGrid(stats.unique_bytes / 50 + 1,
                      static_cast<uint64_t>(stats.unique_bytes * 1.15), 40);
  MrcBank bank(grid, ratio, 42);
  const ReplayBatch chunk = ToChunk(trace.requests);
  bank.ProcessColumns(chunk, 0, chunk.size());
  const WindowCurves curves = bank.EndWindow();
  const SimDuration span = std::max<SimDuration>(trace.duration(), kDay);

  std::printf("%14s", "capacityGB");
  const double egress_prices[] = {0.09, 0.02, 0.009};
  for (double e : egress_prices) {
    std::printf("   $/wk @%4.1fc/GB", e * 100);
  }
  std::printf("\n");

  OptimizerInputs in;
  in.mrc = curves.mrc;
  in.bmc = curves.bmc;  // bytes missed over the whole trace
  in.window = span;     // cost horizon: the trace span
  in.window_reads = static_cast<double>(stats.num_gets);
  in.window_writes = static_cast<double>(stats.num_puts);
  in.objects_per_block =
      std::clamp(16'000'000.0 / std::max(1.0, static_cast<double>(stats.median_object_bytes)),
                 1.0, 40.0);
  std::vector<Curve> cost_curves;
  for (double e : egress_prices) {
    PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
    p.egress_per_gb = e;
    cost_curves.push_back(ExpectedCostCurve(in, p));
  }
  const double week_scale = static_cast<double>(7 * kDay) / static_cast<double>(span);
  for (size_t i = 0; i < grid.size(); i += 3) {
    std::printf("%14.2f", static_cast<double>(grid[i]) / 1e9);
    for (const Curve& c : cost_curves) {
      std::printf("  %15.4f", c.y(i) * week_scale);
    }
    std::printf("\n");
  }
  std::printf("\nrecommendations:\n");
  for (size_t k = 0; k < cost_curves.size(); ++k) {
    const size_t best = cost_curves[k].ArgMin();
    std::printf("  egress %4.1fc/GB -> cache %7.2f GB (%.0f%% of dataset), "
                "expected %s/week\n",
                egress_prices[k] * 100, cost_curves[k].x(best) / 1e9,
                cost_curves[k].x(best) / static_cast<double>(stats.unique_bytes) * 100,
                ("$" + std::to_string(cost_curves[k].y(best) * week_scale)).c_str());
  }
  return 0;
}
