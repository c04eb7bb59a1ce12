#include "src/sim/report_io.h"

#include <bit>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace macaron {

namespace {

// Little helpers for the binary blob: native-endian fixed-width fields
// appended to a string, and a bounds-checked cursor for reading them back.
// The blob is a local cache artifact, not an interchange format, so native
// endianness is fine; a foreign-endian file simply fails the magic check.

constexpr uint32_t kRunResultMagic = 0x5252434du;  // "MCRR" little-endian
constexpr uint32_t kRunResultVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }
void PutF64(std::string* out, double v) { PutU64(out, std::bit_cast<uint64_t>(v)); }
void PutStr(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

struct BlobReader {
  const char* p;
  size_t left;

  bool Raw(void* dst, size_t n) {
    if (left < n) {
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) {
      return false;
    }
    *v = std::bit_cast<double>(bits);
    return true;
  }
  bool Str(std::string* s) {
    uint64_t n;
    if (!U64(&n) || n > left) {
      return false;
    }
    s->assign(p, static_cast<size_t>(n));
    p += n;
    left -= static_cast<size_t>(n);
    return true;
  }
  // Reads a u64 element count and verifies the payload actually fits.
  bool Count(size_t elem_bytes, uint64_t* n) {
    return U64(n) && *n <= left / elem_bytes;
  }
};

}  // namespace

std::string SerializeRunResult(const RunResult& r) {
  std::string out;
  // Samples dominate; reserve roughly the final size up front.
  out.reserve(256 + r.trace_name.size() + r.approach_name.size() +
              r.latency_ms.count() * sizeof(double) +
              (r.osc_capacity_timeline.size() + r.cluster_nodes_timeline.size() +
               r.ttl_timeline.size()) *
                  16);
  PutU32(&out, kRunResultMagic);
  PutU32(&out, kRunResultVersion);
  PutStr(&out, r.trace_name);
  PutStr(&out, r.approach_name);
  PutU32(&out, static_cast<uint32_t>(CostCategory::kNumCategories));
  for (int i = 0; i < static_cast<int>(CostCategory::kNumCategories); ++i) {
    PutF64(&out, r.costs.Get(static_cast<CostCategory>(i)));
  }
  PutU64(&out, r.gets);
  PutU64(&out, r.cluster_hits);
  PutU64(&out, r.osc_hits);
  PutU64(&out, r.remote_fetches);
  PutU64(&out, r.delayed_hits);
  PutU64(&out, r.egress_bytes);
  const std::vector<double>& samples = r.latency_ms.samples();
  PutU64(&out, samples.size());
  for (double s : samples) {
    PutF64(&out, s);
  }
  PutU32(&out, static_cast<uint32_t>(r.reconfigs));
  PutF64(&out, r.total_reconfig_seconds);
  PutF64(&out, r.total_analysis_seconds);
  PutU64(&out, r.osc_capacity_timeline.size());
  for (const auto& [t, cap] : r.osc_capacity_timeline) {
    PutI64(&out, t);
    PutU64(&out, cap);
  }
  PutU64(&out, r.cluster_nodes_timeline.size());
  for (const auto& [t, nodes] : r.cluster_nodes_timeline) {
    PutI64(&out, t);
    PutU64(&out, nodes);
  }
  PutU64(&out, r.ttl_timeline.size());
  for (const auto& [t, ttl] : r.ttl_timeline) {
    PutI64(&out, t);
    PutI64(&out, ttl);
  }
  PutU64(&out, r.first_optimized_capacity);
  PutI64(&out, r.first_optimized_ttl);
  PutF64(&out, r.mean_stored_bytes);
  PutU64(&out, r.dataset_bytes);
  return out;
}

bool DeserializeRunResult(std::string_view blob, RunResult* out) {
  BlobReader rd{blob.data(), blob.size()};
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!rd.U32(&magic) || magic != kRunResultMagic || !rd.U32(&version) ||
      version != kRunResultVersion) {
    return false;
  }
  RunResult r;
  if (!rd.Str(&r.trace_name) || !rd.Str(&r.approach_name)) {
    return false;
  }
  uint32_t categories = 0;
  if (!rd.U32(&categories) ||
      categories != static_cast<uint32_t>(CostCategory::kNumCategories)) {
    return false;
  }
  for (uint32_t i = 0; i < categories; ++i) {
    double d = 0;
    if (!rd.F64(&d)) {
      return false;
    }
    r.costs.Add(static_cast<CostCategory>(i), d);
  }
  if (!rd.U64(&r.gets) || !rd.U64(&r.cluster_hits) || !rd.U64(&r.osc_hits) ||
      !rd.U64(&r.remote_fetches) || !rd.U64(&r.delayed_hits) || !rd.U64(&r.egress_bytes)) {
    return false;
  }
  uint64_t n = 0;
  if (!rd.Count(sizeof(double), &n)) {
    return false;
  }
  r.latency_ms.Reserve(static_cast<size_t>(n));  // Count bounded n by the bytes left
  for (uint64_t i = 0; i < n; ++i) {
    double s = 0;
    if (!rd.F64(&s)) {
      return false;
    }
    r.latency_ms.Add(s);
  }
  uint32_t reconfigs = 0;
  if (!rd.U32(&reconfigs) || !rd.F64(&r.total_reconfig_seconds) ||
      !rd.F64(&r.total_analysis_seconds)) {
    return false;
  }
  r.reconfigs = static_cast<int>(reconfigs);
  if (!rd.Count(16, &n)) {
    return false;
  }
  r.osc_capacity_timeline.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t t = 0;
    uint64_t cap = 0;
    if (!rd.I64(&t) || !rd.U64(&cap)) {
      return false;
    }
    r.osc_capacity_timeline.emplace_back(t, cap);
  }
  if (!rd.Count(16, &n)) {
    return false;
  }
  r.cluster_nodes_timeline.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t t = 0;
    uint64_t nodes = 0;
    if (!rd.I64(&t) || !rd.U64(&nodes)) {
      return false;
    }
    r.cluster_nodes_timeline.emplace_back(t, static_cast<size_t>(nodes));
  }
  if (!rd.Count(16, &n)) {
    return false;
  }
  r.ttl_timeline.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t t = 0;
    int64_t ttl = 0;
    if (!rd.I64(&t) || !rd.I64(&ttl)) {
      return false;
    }
    r.ttl_timeline.emplace_back(t, ttl);
  }
  if (!rd.U64(&r.first_optimized_capacity) || !rd.I64(&r.first_optimized_ttl) ||
      !rd.F64(&r.mean_stored_bytes) || !rd.U64(&r.dataset_bytes) || rd.left != 0) {
    return false;
  }
  *out = std::move(r);
  return true;
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

void AppendCurveSummary(std::string* out, const char* key, const obs::CurveSummary& s) {
  AppendF(out, "\"%s\":{\"points\":%" PRIu64 ",", key, s.points);
  AppendF(out, "\"x_min\":%.17g,\"x_max\":%.17g,\"y_min\":%.17g,\"y_max\":%.17g,", s.x_min,
          s.x_max, s.y_min, s.y_max);
  AppendF(out, "\"chosen_index\":%" PRId64 ",\"chosen_x\":%.17g,\"chosen_y\":%.17g}",
          s.chosen_index, s.chosen_x, s.chosen_y);
}

}  // namespace

std::string DecisionRecordJsonLine(const obs::DecisionRecord& rec) {
  std::string out;
  out.reserve(1024);
  AppendF(&out, "{\"window\":%" PRIu64 ",\"time\":%" PRId64 ",", rec.window,
          static_cast<int64_t>(rec.time));
  AppendF(&out, "\"optimized\":%s,\"mode\":\"%s\",", rec.optimized ? "true" : "false",
          rec.ttl_mode ? "ttl" : "capacity");
  AppendF(&out, "\"osc_capacity\":%" PRIu64 ",\"ttl_ms\":%" PRId64 ",\"garbage_bytes\":%" PRIu64
                ",",
          rec.osc_capacity, static_cast<int64_t>(rec.ttl), rec.garbage_bytes);
  AppendF(&out,
          "\"cost\":{\"capacity_usd\":%.17g,\"egress_usd\":%.17g,\"operation_usd\":%.17g,"
          "\"total_usd\":%.17g},",
          rec.cost_capacity_usd, rec.cost_egress_usd, rec.cost_operation_usd, rec.cost_total_usd);
  out += "\"curves\":{";
  AppendCurveSummary(&out, "mrc", rec.mrc);
  out += ",";
  AppendCurveSummary(&out, "bmc", rec.bmc);
  out += ",";
  AppendCurveSummary(&out, "cost", rec.cost);
  out += ",";
  AppendCurveSummary(&out, "alc", rec.alc);
  out += "},";
  AppendF(&out,
          "\"workload\":{\"expected_reads\":%.17g,\"expected_writes\":%.17g,"
          "\"expected_get_bytes\":%.17g,\"mean_object_bytes\":%.17g,\"objects_per_block\":%.17g},",
          rec.expected_window_reads, rec.expected_window_writes, rec.expected_window_get_bytes,
          rec.mean_object_bytes, rec.objects_per_block);
  AppendF(&out, "\"cluster\":{\"enabled\":%s,\"met_target\":%s,\"clamped\":%s,",
          rec.cluster_enabled ? "true" : "false", rec.cluster_met_target ? "true" : "false",
          rec.cluster_clamped ? "true" : "false");
  AppendF(&out, "\"budget_clamped\":%s,\"requested_nodes\":%" PRIu64 ",\"nodes\":%" PRIu64 ",",
          rec.cluster_budget_clamped ? "true" : "false", rec.cluster_requested_nodes,
          rec.cluster_nodes);
  AppendF(&out, "\"capacity_bytes\":%" PRIu64 ",\"predicted_latency_ms\":%.17g},",
          rec.cluster_capacity_bytes, rec.cluster_predicted_latency_ms);
  AppendF(&out,
          "\"overhead\":{\"lambda_gb_seconds\":%.17g,\"analysis_seconds\":%.17g,"
          "\"reconfig_seconds\":%.17g},",
          rec.lambda_gb_seconds, rec.analysis_seconds, rec.reconfig_seconds);
  AppendF(&out, "\"prices\":{\"egress_per_gb\":%.17g,\"storage_per_gb_month\":%.17g},",
          rec.price_egress_per_gb, rec.price_storage_per_gb_month);
  AppendF(&out, "\"economics\":{\"realized_cost_usd\":%.17g,\"regret_usd\":%.17g}}",
          rec.realized_cost_usd, rec.regret_usd);
  return out;
}

std::string DecisionTraceJsonl(const obs::DecisionTrace& trace) {
  std::string out;
  for (const obs::DecisionRecord& rec : trace.records()) {
    out += DecisionRecordJsonLine(rec);
    out += '\n';
  }
  return out;
}

bool WriteDecisionTraceJsonl(const obs::DecisionTrace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string doc = DecisionTraceJsonl(trace);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

}  // namespace macaron
