// Observability metrics registry (zero overhead when disabled).
//
// Components (OSC packing/GC, cluster routing/priming, in-flight coalescing,
// mini-sim bank replay, controller) expose RegisterMetrics hooks that fetch
// named Counters from a MetricsRegistry. When no registry is wired (the
// default for every simulation), every component holds null sink pointers
// and each instrumentation site is a single predictable null check — no
// allocation, no output, no behavioural change.
// The registry is per-run and single-writer by construction: the engines run
// one request stream on one thread, and the mini-sim banks only touch their
// counters at batch boundaries on the calling thread, so no atomics are
// needed (parallel grid-point replay never increments counters).
//
// Serialization (`Json()`) is deterministic: components and metrics appear
// in registration order, which is itself deterministic because registration
// happens once, during engine Setup.

#ifndef MACARON_SRC_OBS_METRICS_H_
#define MACARON_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace macaron {
namespace obs {

// Monotonic event counter. Instrumented components hold `Counter*` members
// defaulting to nullptr and guard every increment with a null check.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class MetricsRegistry {
 public:
  // Fetch-or-create a counter. Re-registering the same (component, name)
  // returns the existing counter. Returned pointers stay valid for the
  // registry's lifetime (deque-backed).
  Counter* counter(std::string_view component, std::string_view name);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Reads back a counter's value, or 0 if never registered (test helper).
  uint64_t CounterValue(std::string_view component, std::string_view name) const;

  // Folds `other` into this registry: counters add. Counters absent here are
  // created in `other`'s registration order, so folding per-shard registries
  // that registered identical components in identical order preserves the
  // unsharded registry's Json() layout. The sharded engines call this once
  // per shard, in shard order, after the run completes — deterministic
  // regardless of how many threads replayed.
  void MergeFrom(const MetricsRegistry& other);

  // One JSON document: { "component": { "metric": count } }. Deterministic
  // (registration order).
  std::string Json() const;

 private:
  struct Entry {
    std::string component;
    std::string name;
    size_t index;  // into counters_
  };

  const Entry* Find(std::string_view component, std::string_view name) const;

  // Registration is rare (a handful of sites per run), so a linear scan
  // beats maintaining a map. A deque keeps counter addresses stable.
  std::vector<Entry> entries_;
  std::deque<Counter> counters_;
};

}  // namespace obs
}  // namespace macaron

#endif  // MACARON_SRC_OBS_METRICS_H_
