#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace macaron {
namespace obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

const MetricsRegistry::Entry* MetricsRegistry::Find(std::string_view component,
                                                    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.component == component && e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(std::string_view component, std::string_view name) {
  if (const Entry* e = Find(component, name)) {
    return &counters_[e->index];
  }
  counters_.emplace_back();
  entries_.push_back({std::string(component), std::string(name), counters_.size() - 1});
  return &counters_.back();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const Entry& e : other.entries_) {
    counter(e.component, e.name)->Inc(other.counters_[e.index].value());
  }
}

uint64_t MetricsRegistry::CounterValue(std::string_view component, std::string_view name) const {
  const Entry* e = Find(component, name);
  return e == nullptr ? 0 : counters_[e->index].value();
}

std::string MetricsRegistry::Json() const {
  std::string out = "{";
  // Components in first-registration order; within one, metrics in
  // registration order.
  std::vector<std::string_view> components;
  for (const Entry& e : entries_) {
    bool seen = false;
    for (std::string_view c : components) {
      if (c == e.component) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      components.push_back(e.component);
    }
  }
  for (size_t ci = 0; ci < components.size(); ++ci) {
    AppendF(&out, "%s\n  \"%.*s\": {", ci == 0 ? "" : ",",
            static_cast<int>(components[ci].size()), components[ci].data());
    bool first = true;
    for (const Entry& e : entries_) {
      if (e.component != components[ci]) {
        continue;
      }
      AppendF(&out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", e.name.c_str(),
              counters_[e.index].value());
      first = false;
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

}  // namespace obs
}  // namespace macaron
