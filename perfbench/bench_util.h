// Timing, sampling-statistics and JSON helpers shared by the benchmark
// program (perfbench.cc) and the serial layer replica (replica.cc).

#ifndef MACARON_PERFBENCH_BENCH_UTIL_H_
#define MACARON_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>

#include "src/common/stats.h"

namespace macaron {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// User + system CPU seconds of the whole process (all threads).
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Per-call timings of one layer entry point are kept in a PercentileTracker.
// Their summary is the median and the highest percentile of {90, 99, 99.9}
// that still has at least ten samples beyond it (the median when there are
// too few samples for any).
inline double TailLevel(uint64_t n) {
  double level = 50.0;
  for (double p : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
      level = p;
    }
  }
  return level;
}

inline double Sum(const PercentileTracker& t) {
  return t.Mean() * static_cast<double>(t.count());
}

// Flat JSON object writer: numbers are printed with all their digits.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) { Raw(key, Quote(v)); }
  // `json` must already be valid JSON.
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += Quote(key) + ":" + json;
  }
  // Median / tail / count of a timing, under "<key>.p50", "<key>.tail" and
  // "<key>.n".
  void Timing(const std::string& key, const PercentileTracker& t) {
    Num(key + ".p50", t.Quantile(0.5));
    Num(key + ".tail", t.Quantile(TailLevel(t.count()) / 100.0));
    Int(key + ".n", t.count());
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench
}  // namespace macaron

#endif  // MACARON_PERFBENCH_BENCH_UTIL_H_
