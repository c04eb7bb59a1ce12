// simulate: the command-line front end to the simulator (the equivalent of
// the paper's released macaron_simulator driver). Runs one approach over
// one workload with every knob exposed as a flag and prints the metered
// result.
//
// Usage:
//   simulate [--trace=NAME|FILE.csv] [--approach=A] [--scenario=S] [...]
//
// Flags (defaults first, valid range in brackets):
//   --trace=ibm55           workload profile name, or a CSV trace file
//   --approach=macaron      remote | replicated | ecpc | flash-ecpc |
//                           macaron | macaron+cc | macaron-ttl |
//                           static-capacity | static-ttl
//   --scenario=cross-cloud  cross-cloud | cross-region
//   --egress-scale=1.0      multiply the egress price (Fig 12a) [>= 0]
//   --window-min=15         optimization window, minutes [>= 1 ms]
//   --observation-hours=24  observation period, hours [>= 0]
//   --decay=0.2             knowledge decay per day, 1.0 = none [0, 1]
//   --policy=lru            OSC replacement: lru | fifo | slru | s3fifo
//   --dark=0.7              dark-data fraction, replicated baseline [0, 1]
//   --static-capacity-gb=N  capacity for static-capacity, required by it
//                           [1e-9, 1e9]
//   --static-ttl-hours=N    TTL for static-ttl, required by it [>= 1 ms]
//   --no-packing            disable object packing (§7.4 ablation)
//   --admission-bypass      enable the admission-bypass extension
//   --no-latency            skip latency sampling (cost-only, faster)
//   --seed=7                root RNG seed [unsigned 64-bit integer]
//   --analyzer-threads=1    mini-sim fan-out threads, same curves any value
//                           [1, 1024]
//   --num-shards=1          serving shards, structural: changes the
//                           deployment [1, 1024]
//   --shard-threads=1       shard worker threads, same output any value
//                           [1, 1024]
//   --verbose               print reconfiguration timelines
//
// Numeric values are parsed strictly: a value that is not a finite number
// in its range, or that has trailing characters, exits with status 2 and a
// message naming the flag. So does a static approach given without its
// parameter.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/cli.h"
#include "src/sim/replay_engine.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

using namespace macaron;

namespace {

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

using cli::BadValue;
using cli::ParseReal;
using cli::ParseUnsigned;

// A duration given in `unit`s that must come to at least `min` once
// truncated to milliseconds (a zero window would never advance the run).
SimDuration ParseDuration(const char* flag, const std::string& v, SimDuration unit,
                          SimDuration min, const char* expected) {
  const double max_units =
      static_cast<double>(std::numeric_limits<SimDuration>::max() / 2) / static_cast<double>(unit);
  const SimDuration d = static_cast<SimDuration>(
      ParseReal(flag, v, 0.0, max_units, expected) * static_cast<double>(unit));
  if (d < min) {
    BadValue(flag, v, expected);
  }
  return d;
}

int ParseCount(const char* flag, const std::string& v) {
  return static_cast<int>(ParseUnsigned(flag, v, 1, 1024, "an integer in [1, 1024]"));
}

Approach ParseApproach(const std::string& s) {
  const struct {
    const char* name;
    Approach a;
  } table[] = {
      {"remote", Approach::kRemote},
      {"replicated", Approach::kReplicated},
      {"ecpc", Approach::kEcpc},
      {"flash-ecpc", Approach::kFlashEcpc},
      {"macaron", Approach::kMacaronNoCluster},
      {"macaron+cc", Approach::kMacaron},
      {"macaron-ttl", Approach::kMacaronTtl},
      {"static-capacity", Approach::kStaticCapacity},
      {"static-ttl", Approach::kStaticTtl},
  };
  for (const auto& entry : table) {
    if (s == entry.name) {
      return entry.a;
    }
  }
  std::fprintf(stderr, "unknown approach '%s'\n", s.c_str());
  std::exit(2);
}

EvictionPolicyKind ParsePolicy(const std::string& s) {
  if (s == "lru") {
    return EvictionPolicyKind::kLru;
  }
  if (s == "fifo") {
    return EvictionPolicyKind::kFifo;
  }
  if (s == "slru") {
    return EvictionPolicyKind::kSlru;
  }
  if (s == "s3fifo") {
    return EvictionPolicyKind::kS3Fifo;
  }
  std::fprintf(stderr, "unknown policy '%s'\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_name = "ibm55";
  EngineConfig cfg;
  cfg.approach = Approach::kMacaronNoCluster;
  DeploymentScenario scenario = DeploymentScenario::kCrossCloud;
  double egress_scale = 1.0;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argv[i], "--trace", &v)) {
      trace_name = v;
    } else if (FlagValue(argv[i], "--approach", &v)) {
      cfg.approach = ParseApproach(v);
    } else if (FlagValue(argv[i], "--scenario", &v)) {
      if (v == "cross-cloud") {
        scenario = DeploymentScenario::kCrossCloud;
      } else if (v == "cross-region") {
        scenario = DeploymentScenario::kCrossRegion;
      } else {
        std::fprintf(stderr, "unknown scenario '%s'\n", v.c_str());
        return 2;
      }
    } else if (FlagValue(argv[i], "--egress-scale", &v)) {
      egress_scale = ParseReal("--egress-scale", v, 0.0, std::numeric_limits<double>::max(),
                               "a finite number >= 0");
    } else if (FlagValue(argv[i], "--window-min", &v)) {
      cfg.window = ParseDuration("--window-min", v, kMinute, kMillisecond,
                                 "a number of minutes of at least 1 ms");
    } else if (FlagValue(argv[i], "--observation-hours", &v)) {
      cfg.observation =
          ParseDuration("--observation-hours", v, kHour, 0, "a number of hours >= 0");
    } else if (FlagValue(argv[i], "--decay", &v)) {
      cfg.decay_per_day = ParseReal("--decay", v, 0.0, 1.0, "a number in [0, 1]");
    } else if (FlagValue(argv[i], "--policy", &v)) {
      cfg.packing.policy = ParsePolicy(v);
    } else if (FlagValue(argv[i], "--dark", &v)) {
      cfg.dark_data_fraction = ParseReal("--dark", v, 0.0, 1.0, "a number in [0, 1]");
    } else if (FlagValue(argv[i], "--static-capacity-gb", &v)) {
      constexpr const char* kExpected = "a number of GB in [1e-9, 1e9]";
      const double gb = ParseReal("--static-capacity-gb", v, 0.0, 1e9, kExpected);
      cfg.static_capacity_bytes = static_cast<uint64_t>(gb * 1e9);
      if (cfg.static_capacity_bytes == 0) {
        BadValue("--static-capacity-gb", v, kExpected);
      }
    } else if (FlagValue(argv[i], "--static-ttl-hours", &v)) {
      cfg.static_ttl = ParseDuration("--static-ttl-hours", v, kHour, kMillisecond,
                                     "a number of hours of at least 1 ms");
    } else if (FlagValue(argv[i], "--seed", &v)) {
      cfg.seed = ParseUnsigned("--seed", v, 0, std::numeric_limits<uint64_t>::max(),
                               "an unsigned 64-bit integer");
    } else if (FlagValue(argv[i], "--analyzer-threads", &v)) {
      cfg.analyzer_threads = ParseCount("--analyzer-threads", v);
    } else if (FlagValue(argv[i], "--num-shards", &v)) {
      cfg.num_shards = ParseCount("--num-shards", v);
    } else if (FlagValue(argv[i], "--shard-threads", &v)) {
      cfg.shard_threads = ParseCount("--shard-threads", v);
    } else if (std::strcmp(argv[i], "--no-packing") == 0) {
      cfg.packing.packing_enabled = false;
    } else if (std::strcmp(argv[i], "--admission-bypass") == 0) {
      cfg.enable_admission_bypass = true;
    } else if (std::strcmp(argv[i], "--no-latency") == 0) {
      cfg.measure_latency = false;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  // The static approaches have no default for their one parameter.
  if (cfg.approach == Approach::kStaticCapacity && cfg.static_capacity_bytes == 0) {
    std::fprintf(stderr, "missing --static-capacity-gb: --approach=static-capacity needs it\n");
    return 2;
  }
  if (cfg.approach == Approach::kStaticTtl && cfg.static_ttl == 0) {
    std::fprintf(stderr, "missing --static-ttl-hours: --approach=static-ttl needs it\n");
    return 2;
  }
  cfg.prices = PriceBook::Aws(scenario).WithEgressScale(egress_scale);
  cfg.scenario = scenario == DeploymentScenario::kCrossCloud ? LatencyScenario::kCrossCloudUs
                                                             : LatencyScenario::kCrossRegionUs;

  Trace trace;
  if (trace_name.size() > 4 && trace_name.substr(trace_name.size() - 4) == ".csv") {
    std::string error;
    if (!ReadTraceCsv(trace_name, &trace, &error)) {
      std::fprintf(stderr, "cannot read trace file %s\n", error.c_str());
      return 1;
    }
    trace.name = trace_name;
    trace = SplitObjects(trace, 4'000'000);
  } else {
    const WorkloadProfile p = ProfileByName(trace_name);
    trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
  }
  std::printf("trace: %s\n", ComputeStats(trace).Summary().c_str());

  const RunResult r = ReplayEngine(cfg).Run(trace);
  std::printf("\n%s\n", r.Summary().c_str());
  std::printf("\ncost breakdown:\n%s", r.costs.Breakdown().c_str());
  if (cfg.measure_latency) {
    std::printf("\nlatency: mean %.1f ms, p50 %.1f, p90 %.1f, p99 %.1f\n", r.MeanLatencyMs(),
                r.latency_ms.Quantile(0.5), r.latency_ms.Quantile(0.9),
                r.latency_ms.Quantile(0.99));
  }
  std::printf("reconfigurations: %d (total %.0f s); mean OSC resident %.3f GB; dataset "
              "%.3f GB\n",
              r.reconfigs, r.total_reconfig_seconds, r.mean_stored_bytes / 1e9,
              static_cast<double>(r.dataset_bytes) / 1e9);
  if (verbose) {
    std::printf("\nOSC capacity timeline:\n");
    for (size_t i = 0; i < r.osc_capacity_timeline.size(); i += 8) {
      std::printf("  t=%5.2fd  %8.3f GB\n",
                  static_cast<double>(r.osc_capacity_timeline[i].first) / kDay,
                  static_cast<double>(r.osc_capacity_timeline[i].second) / 1e9);
    }
    for (size_t i = 0; i < r.ttl_timeline.size(); i += 8) {
      std::printf("  t=%5.2fd  ttl=%lldh\n",
                  static_cast<double>(r.ttl_timeline[i].first) / kDay,
                  static_cast<long long>(r.ttl_timeline[i].second / kHour));
    }
  }
  return 0;
}
