// bench_all: regenerates the full figure/table suite in one process.
//
// Every figure submits its (trace, config) grid through the shared sweep
// scheduler, so one process reuses trace generation across figures, fans
// simulations across cores, deduplicates rows shared by several figures
// (e.g. the default Macaron run appears in Fig 1, Fig 7, §5.3, §7.7), and
// memoizes results into the persistent cache — a warm rerun does no
// simulation work at all. Figure output is printed in canonical order and
// is bit-identical to running the standalone binaries serially.
//
// Usage:
//   bench_all [--threads N] [--cache-dir DIR] [--cold] [--only SUBSTR]
//             [--json PATH] [--metrics] [--metrics-dir DIR] [--list]
//             [--compare BASELINE.json] [--compare-threshold PCT]
//
//   --threads N      worker threads, 1 to 1024 (default: MACARON_SWEEP_THREADS
//                    or cores)
//   --cache-dir D    persistent result cache (default: MACARON_RESULT_CACHE
//                    or .macaron-results; "off" disables)
//   --cold           delete cached .run results first (forces simulation)
//   --only S         run only figures whose name contains S (repeatable)
//   --json PATH      write per-figure wall-clock + scheduler stats to PATH
//                    (default: none written; "off" also writes none)
//   --metrics        write per-job decision traces + metrics registries
//                    (JSONL/JSON under --metrics-dir; stderr-only reporting,
//                    figure stdout stays byte-identical)
//   --metrics-dir D  observability output directory (default
//                    .macaron-metrics; implies --metrics)
//   --list           print figure names and exit
//   --compare B      after the run, diff per-figure wall clock and scheduler
//                    busy-seconds against the --json report of a previous
//                    run; prints one delta line per figure and exits 3 if
//                    anything regressed beyond the threshold. Meaningful
//                    for like-for-like runs (both --cold, same --threads);
//                    the delta report goes to stderr so figure stdout
//                    stays byte-identical.
//   --compare-threshold PCT
//                    regression tolerance for --compare, percent >= 0
//                    (default 15; small figures additionally get a 50 ms
//                    floor so scheduler jitter does not trip the gate)
//
// Only simulated jobs emit traces: a result served from a warm cache ran no
// controller, so --metrics over a warm store writes nothing. Combine with
// --cold to trace every job.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/suite.h"
#include "src/cache/simd.h"
#include "src/common/cli.h"

using namespace macaron;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int WipeStore(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  int removed = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".run" && fs::remove(entry.path(), ec)) {
      ++removed;
    }
  }
  return removed;
}

struct FigureTiming {
  std::string name;
  double seconds = 0.0;
  int exit_code = 0;
};

void WriteJson(const std::string& path, int threads, double total_seconds,
               const std::vector<FigureTiming>& timings, const sweep::SweepStats& stats) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_all: cannot write %s\n", path.c_str());
    return;
  }
  // "macaron_simd" mirrors bench_micro's custom context: which cache-core
  // probe path this binary compiled (results are identical either way; only
  // the timings differ).
  std::fprintf(f, "{\n  \"threads\": %d,\n  \"macaron_simd\": \"%s\",\n  \"total_seconds\": %.3f,\n",
               threads, SimdFeatureString(), total_seconds);
  std::fprintf(f,
               "  \"jobs\": {\"submitted\": %zu, \"unique\": %zu, \"executed\": %zu, "
               "\"store_hits\": %zu, \"peak_in_flight\": %d, \"busy_seconds\": %.3f, "
               "\"stats_passes\": %zu, \"content_hashes\": %zu},\n",
               stats.submitted, stats.unique, stats.executed, stats.store_hits,
               stats.peak_in_flight, stats.busy_seconds, stats.stats_passes,
               stats.content_hashes);
  std::fprintf(f, "  \"figures\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"seconds\": %.3f, \"exit_code\": %d}%s\n",
                 timings[i].name.c_str(), timings[i].seconds, timings[i].exit_code,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Baseline data mined from a previous run's --json report. The file format
// is our own WriteJson output, so a targeted scan beats dragging in a JSON
// parser: one "busy_seconds" scalar plus {"name", "seconds"} per figure.
struct Baseline {
  bool ok = false;
  double busy_seconds = -1.0;
  std::vector<std::pair<std::string, double>> figure_seconds;
};

Baseline ReadBaseline(const std::string& path) {
  Baseline b;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return b;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  const auto find_double_after = [&](const char* key, size_t from, double* out) -> size_t {
    const size_t k = text.find(key, from);
    if (k == std::string::npos) {
      return std::string::npos;
    }
    const size_t colon = text.find(':', k);
    if (colon == std::string::npos) {
      return std::string::npos;
    }
    *out = std::strtod(text.c_str() + colon + 1, nullptr);
    return colon;
  };

  double busy = -1.0;
  if (find_double_after("\"busy_seconds\"", 0, &busy) != std::string::npos) {
    b.busy_seconds = busy;
  }
  size_t pos = text.find("\"figures\"");
  while (pos != std::string::npos) {
    const size_t name_key = text.find("\"name\"", pos);
    if (name_key == std::string::npos) {
      break;
    }
    const size_t open = text.find('"', text.find(':', name_key) + 1);
    const size_t close = open == std::string::npos ? std::string::npos : text.find('"', open + 1);
    if (close == std::string::npos) {
      break;
    }
    double seconds = 0.0;
    const size_t spos = find_double_after("\"seconds\"", close, &seconds);
    if (spos == std::string::npos) {
      break;
    }
    b.figure_seconds.emplace_back(text.substr(open + 1, close - open - 1), seconds);
    pos = spos;
  }
  b.ok = !b.figure_seconds.empty() || b.busy_seconds >= 0.0;
  return b;
}

// Per-figure wall-clock deltas vs the baseline, to stderr (figure stdout
// must stay byte-identical under --compare). Returns the number of
// regressions beyond `threshold_pct` — with an absolute 50 ms floor so the
// gate measures the simulator, not scheduler jitter on sub-100 ms figures.
int CompareWithBaseline(const Baseline& base, double threshold_pct,
                        const std::vector<FigureTiming>& timings,
                        const sweep::SweepStats& stats) {
  constexpr double kAbsFloorSeconds = 0.05;
  int regressions = 0;
  std::fprintf(stderr, "\nbench_all: --compare deltas (threshold %+.0f%%)\n", threshold_pct);
  for (const FigureTiming& ft : timings) {
    double base_seconds = -1.0;
    for (const auto& [name, seconds] : base.figure_seconds) {
      if (name == ft.name) {
        base_seconds = seconds;
        break;
      }
    }
    if (base_seconds < 0.0) {
      std::fprintf(stderr, "  %-28s %7.3fs  (not in baseline)\n", ft.name.c_str(), ft.seconds);
      continue;
    }
    const double delta = ft.seconds - base_seconds;
    const double pct = base_seconds > 0.0 ? 100.0 * delta / base_seconds : 0.0;
    const bool regressed =
        delta > kAbsFloorSeconds && base_seconds > 0.0 && pct > threshold_pct;
    std::fprintf(stderr, "  %-28s %7.3fs vs %7.3fs  %+7.1f%%%s\n", ft.name.c_str(), ft.seconds,
                 base_seconds, pct, regressed ? "  [REGRESSION]" : "");
    regressions += regressed ? 1 : 0;
  }
  if (base.busy_seconds >= 0.0) {
    const double delta = stats.busy_seconds - base.busy_seconds;
    const double pct = base.busy_seconds > 0.0 ? 100.0 * delta / base.busy_seconds : 0.0;
    const bool regressed =
        delta > kAbsFloorSeconds && base.busy_seconds > 0.0 && pct > threshold_pct;
    std::fprintf(stderr, "  %-28s %7.3fs vs %7.3fs  %+7.1f%%%s\n", "(scheduler busy)",
                 stats.busy_seconds, base.busy_seconds, pct, regressed ? "  [REGRESSION]" : "");
    regressions += regressed ? 1 : 0;
  }
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  macaron::bench::WarnIfUnoptimizedBuild("bench_all");
  int threads = -1;
  std::string cache_dir;
  bool cache_dir_set = false;
  bool cold = false;
  bool list = false;
  bool metrics = false;
  std::string metrics_dir = ".macaron-metrics";
  std::string json_path;
  std::string compare_path;
  double compare_threshold = 15.0;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both --flag=value (the simulate CLI idiom) and --flag value.
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
      arg.resize(eq);
    }
    auto next = [&](const char* flag) -> std::string {
      if (has_inline_value) {
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_all: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      threads = static_cast<int>(
          cli::ParseUnsigned("--threads", next("--threads"), 1, 1024, "an integer in [1, 1024]"));
    } else if (arg == "--cache-dir") {
      cache_dir = next("--cache-dir");
      cache_dir_set = true;
    } else if (arg == "--cold") {
      cold = true;
    } else if (arg == "--only") {
      only.push_back(next("--only"));
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--compare") {
      compare_path = next("--compare");
    } else if (arg == "--compare-threshold") {
      compare_threshold =
          cli::ParseReal("--compare-threshold", next("--compare-threshold"), 0.0,
                         std::numeric_limits<double>::max(), "a finite number >= 0");
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--metrics-dir") {
      metrics_dir = next("--metrics-dir");
      metrics = true;
    } else if (arg == "--list") {
      list = true;
    } else {
      std::fprintf(stderr, "bench_all: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // Validated before --list, so a malformed value never goes unnoticed.
  const int env_threads = bench::SweepThreadsFromEnv();

  if (list) {
    for (const bench::SuiteEntry& e : bench::Suite()) {
      std::printf("%-28s %s\n", e.name.c_str(), e.ref.c_str());
    }
    return 0;
  }

  // Resolve scheduler settings (flags beat the environment) before the
  // first submission; the env path is handled by SharedSweep itself.
  const char* env_dir = std::getenv("MACARON_RESULT_CACHE");
  std::string dir = cache_dir_set ? cache_dir : (env_dir != nullptr ? env_dir : ".macaron-results");
  if (dir == "off" || dir == "0") {
    dir.clear();
  }
  if (threads >= 1 || cache_dir_set || metrics) {
    if (threads < 1) {
      threads = env_threads;
    }
    bench::ConfigureSweep(threads, dir, metrics ? metrics_dir : "");
  }
  if (cold && !dir.empty()) {
    const int removed = WipeStore(dir);
    std::fprintf(stderr, "bench_all: --cold removed %d cached results from %s\n", removed,
                 dir.c_str());
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<FigureTiming> timings;
  int failures = 0;
  for (const bench::SuiteEntry& e : bench::Suite()) {
    if (!only.empty()) {
      bool match = false;
      for (const std::string& pat : only) {
        if (e.name.find(pat) != std::string::npos) {
          match = true;
          break;
        }
      }
      if (!match) {
        continue;
      }
    }
    const auto fig_start = std::chrono::steady_clock::now();
    FigureTiming ft;
    ft.name = e.name;
    ft.exit_code = e.fn();
    ft.seconds = SecondsSince(fig_start);
    std::fflush(stdout);
    std::fprintf(stderr, "bench_all: %-28s %7.2fs%s\n", e.name.c_str(), ft.seconds,
                 ft.exit_code == 0 ? "" : "  [nonzero exit]");
    if (ft.exit_code != 0) {
      ++failures;
    }
    timings.push_back(ft);
  }
  const double total = SecondsSince(t0);

  const sweep::SweepStats stats = bench::SharedSweep().stats();
  std::fprintf(stderr,
               "\nbench_all: %zu figures in %.2fs | threads %d | jobs: %zu submitted, "
               "%zu unique, %zu simulated, %zu from cache, peak %d in flight, "
               "%.1fs busy, %zu trace stats passes, %zu trace content hashes\n",
               timings.size(), total, bench::SharedSweep().threads(), stats.submitted,
               stats.unique, stats.executed, stats.store_hits, stats.peak_in_flight,
               stats.busy_seconds, stats.stats_passes, stats.content_hashes);
  if (json_path != "off" && !json_path.empty()) {
    WriteJson(json_path, bench::SharedSweep().threads(), total, timings, stats);
    std::fprintf(stderr, "bench_all: wrote %s\n", json_path.c_str());
  }
  if (metrics) {
    // stderr only: figure stdout must stay byte-identical with/without
    // --metrics (the acceptance check diffs the two).
    std::fprintf(stderr,
                 "bench_all: decision traces + metrics for %zu simulated jobs in %s "
                 "(warm-cache jobs emit none)\n",
                 stats.executed, metrics_dir.c_str());
  }
  if (!compare_path.empty()) {
    const Baseline base = ReadBaseline(compare_path);
    if (!base.ok) {
      std::fprintf(stderr, "bench_all: --compare cannot read %s\n", compare_path.c_str());
      return 2;
    }
    const int regressions = CompareWithBaseline(base, compare_threshold, timings, stats);
    if (regressions > 0) {
      std::fprintf(stderr, "bench_all: %d figure(s) regressed beyond %.0f%%\n", regressions,
                   compare_threshold);
      return failures == 0 ? 3 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
