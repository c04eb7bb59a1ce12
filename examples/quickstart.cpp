// Quickstart: generate a workload, run Macaron and every baseline over it,
// and print the cost/latency comparison (a miniature Fig 7 for one trace).
//
// Usage: quickstart [trace-name]   (default: ibm55)

#include <cstdio>
#include <string>

#include "src/oracle/exact_oracle.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"

using namespace macaron;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "ibm55";
  const WorkloadProfile profile = ProfileByName(name);
  std::printf("Generating workload '%s'...\n", profile.name.c_str());
  const Trace trace = SplitObjects(GenerateTrace(profile), profile.max_object_bytes);
  const TraceStats stats = ComputeStats(trace);
  std::printf("  %s\n\n", stats.Summary().c_str());

  EngineConfig base;
  base.prices = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  base.scenario = LatencyScenario::kCrossCloudUs;
  base.dataset_bytes_hint = stats.unique_bytes;

  const Approach approaches[] = {Approach::kRemote, Approach::kReplicated, Approach::kEcpc,
                                 Approach::kMacaronNoCluster, Approach::kMacaron};
  std::printf("%-16s %10s %10s %10s %10s %10s %10s | %9s %9s\n", "approach", "total$", "egress$",
              "capacity$", "op$", "infra$", "cluster$", "avg ms", "p99 ms");
  for (Approach a : approaches) {
    EngineConfig cfg = base;
    cfg.approach = a;
    const RunResult r = ReplayEngine(cfg).Run(trace);
    std::printf("%-16s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f | %9.1f %9.1f\n",
                r.approach_name.c_str(), r.costs.Total(), r.costs.Get(CostCategory::kEgress),
                r.costs.Get(CostCategory::kCapacity), r.costs.Get(CostCategory::kOperation),
                r.costs.Get(CostCategory::kInfra) + r.costs.Get(CostCategory::kServerless),
                r.costs.Get(CostCategory::kClusterNodes), r.MeanLatencyMs(),
                r.latency_ms.Quantile(0.99));
  }

  // The offline optimal (Oracular: the exact optimum with zero operation
  // costs), for reference.
  GroundTruthLatency truth(base.scenario);
  FittedLatencyGenerator fitted(truth, 400, 99);
  ExactOracleOptions opts;
  opts.latency = &fitted;
  opts.seed = 99;
  const ExactOracleResult oracle = RunExactOracle(trace, base.prices.OpFree(), opts);
  std::printf("%-16s %10.4f %10.4f %10.4f %10s %10s %10s | %9.1f %9.1f\n", "oracular",
              oracle.costs.Total(), oracle.costs.Get(CostCategory::kEgress),
              oracle.costs.Get(CostCategory::kCapacity), "-", "-", "-", oracle.latency_ms.Mean(),
              oracle.latency_ms.Quantile(0.99));
  return 0;
}
