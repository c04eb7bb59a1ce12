// Fig 1b: total cost of running all 19 workloads cross-cloud under each
// approach. Paper shape: Macaron cuts ~73% vs Remote, ~81% vs Replicated,
// ~66% vs ECPC; Oracular improves on Macaron by only ~9%.

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace macaron;

int RunFig1TotalCost() {
  bench::PrintHeader("Total cost of 19 cross-cloud workloads by approach", "Fig 1b");
  // Phase 1: submit the full grid; the sweep fans jobs across cores.
  struct Row {
    std::string name;
    size_t remote, replicated, ecpc, macaron, oracular;
  };
  std::vector<Row> rows;
  for (const std::string& name : bench::AllTraceNames()) {
    Row r;
    r.name = name;
    r.remote = bench::Submit(name, Approach::kRemote, DeploymentScenario::kCrossCloud);
    r.replicated = bench::Submit(name, Approach::kReplicated, DeploymentScenario::kCrossCloud);
    r.ecpc = bench::Submit(name, Approach::kEcpc, DeploymentScenario::kCrossCloud);
    r.macaron = bench::Submit(name, Approach::kMacaronNoCluster, DeploymentScenario::kCrossCloud);
    r.oracular = bench::SubmitOracle(name, DeploymentScenario::kCrossCloud);
    rows.push_back(r);
  }
  // Phase 2: collect by submission index — totals accumulate in the exact
  // order the serial loop used.
  double remote = 0.0;
  double replicated = 0.0;
  double ecpc = 0.0;
  double macaron = 0.0;
  double oracular = 0.0;
  for (const Row& r : rows) {
    remote += bench::Result(r.remote).costs.Total();
    replicated += bench::Result(r.replicated).costs.Total();
    ecpc += bench::Result(r.ecpc).costs.Total();
    macaron += bench::Result(r.macaron).costs.Total();
    oracular += bench::Result(r.oracular).costs.Total();
    std::fprintf(stderr, "  done %s\n", r.name.c_str());
  }
  std::printf("%-12s %12s %18s\n", "approach", "total", "vs. Macaron");
  std::printf("%-12s %12s %17.2fx\n", "remote", bench::Dollars(remote).c_str(),
              remote / macaron);
  std::printf("%-12s %12s %17.2fx\n", "replicated", bench::Dollars(replicated).c_str(),
              replicated / macaron);
  std::printf("%-12s %12s %17.2fx\n", "ecpc", bench::Dollars(ecpc).c_str(), ecpc / macaron);
  std::printf("%-12s %12s %17.2fx\n", "macaron", bench::Dollars(macaron).c_str(), 1.0);
  std::printf("%-12s %12s %17.2fx\n", "oracular", bench::Dollars(oracular).c_str(),
              oracular / macaron);
  std::printf("\nReductions: vs Remote %s, vs Replicated %s, vs ECPC %s; "
              "Oracular below Macaron by %s\n",
              bench::Percent(1.0 - macaron / remote).c_str(),
              bench::Percent(1.0 - macaron / replicated).c_str(),
              bench::Percent(1.0 - macaron / ecpc).c_str(),
              bench::Percent(1.0 - oracular / macaron).c_str());
  std::printf("Paper: 73%% vs Remote, 81%% vs Replicated, 66%% vs ECPC, oracle gap ~9%%.\n");
  return 0;
}

MACARON_BENCH_MAIN(RunFig1TotalCost)
