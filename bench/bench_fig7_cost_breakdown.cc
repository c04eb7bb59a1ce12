// Fig 7 / Fig 14: per-trace remote-data-access cost under every approach,
// for cross-region and cross-cloud deployments, with per-category breakdown.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

namespace {

void PrintRow(const RunResult& r) {
  std::printf("  %-14s %10.4f | egress %9.4f cap %8.4f op %8.4f infra %8.4f cc %8.4f\n",
              r.approach_name.c_str(), r.costs.Total(), r.costs.Get(CostCategory::kEgress),
              r.costs.Get(CostCategory::kCapacity), r.costs.Get(CostCategory::kOperation),
              r.costs.Get(CostCategory::kInfra) + r.costs.Get(CostCategory::kServerless),
              r.costs.Get(CostCategory::kClusterNodes));
}

void RunScenario(DeploymentScenario scenario, const char* label) {
  std::printf("\n--- %s ---\n", label);
  struct Row {
    std::string name;
    size_t remote, repl, ecpc, mac, oracle;
  };
  std::vector<Row> grid;
  for (const std::string& name : macaron::bench::AllTraceNames()) {
    Row r;
    r.name = name;
    r.remote = macaron::bench::Submit(name, Approach::kRemote, scenario);
    r.repl = macaron::bench::Submit(name, Approach::kReplicated, scenario);
    r.ecpc = macaron::bench::Submit(name, Approach::kEcpc, scenario);
    r.mac = macaron::bench::Submit(name, Approach::kMacaronNoCluster, scenario);
    r.oracle = macaron::bench::SubmitOracle(name, scenario);
    grid.push_back(r);
  }
  double wins = 0;
  double total = 0;
  double sum_red_remote = 0.0;
  double sum_red_repl = 0.0;
  for (const Row& row : grid) {
    std::printf("%s:\n", row.name.c_str());
    const RunResult& remote = macaron::bench::Result(row.remote);
    const RunResult& repl = macaron::bench::Result(row.repl);
    const RunResult& ecpc = macaron::bench::Result(row.ecpc);
    const RunResult& mac = macaron::bench::Result(row.mac);
    const RunResult& oracle = macaron::bench::Result(row.oracle);
    PrintRow(remote);
    PrintRow(repl);
    PrintRow(ecpc);
    PrintRow(mac);
    std::printf("  %-14s %10.4f | egress %9.4f cap %8.4f\n", "oracular", oracle.costs.Total(),
                oracle.costs.Get(CostCategory::kEgress),
                oracle.costs.Get(CostCategory::kCapacity));
    const double best_baseline =
        std::min(remote.costs.Total(), std::min(repl.costs.Total(), ecpc.costs.Total()));
    total += 1;
    if (mac.costs.Total() <= best_baseline) {
      wins += 1;
    }
    sum_red_remote += 1.0 - mac.costs.Total() / remote.costs.Total();
    sum_red_repl += 1.0 - mac.costs.Total() / repl.costs.Total();
  }
  std::printf("\n%s summary: Macaron cheapest on %.0f/%.0f traces; avg reduction "
              "vs Remote %s, vs Replicated %s\n",
              label, wins, total, macaron::bench::Percent(sum_red_remote / total).c_str(),
              macaron::bench::Percent(sum_red_repl / total).c_str());
}

}  // namespace

int RunFig7CostBreakdown() {
  macaron::bench::PrintHeader("Per-trace cost comparison, all approaches", "Fig 7 / Fig 14");
  RunScenario(DeploymentScenario::kCrossRegion, "cross-region (2c/GB egress)");
  RunScenario(DeploymentScenario::kCrossCloud, "cross-cloud (9c/GB egress)");
  std::printf("\nPaper: cross-cloud avg 65%% vs Remote / 75%% vs Replicated; cross-region "
              "67%% / 78%% on low-compulsory traces, with IBM 27/66/96 near break-even.\n");
  return 0;
}

MACARON_BENCH_MAIN(RunFig7CostBreakdown)
