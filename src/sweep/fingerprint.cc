#include "src/sweep/fingerprint.h"

#include <bit>
#include <cstdio>

namespace macaron {
namespace sweep {

std::string Fingerprint::Hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void FingerprintHasher::MixU64(uint64_t v) {
  hi_ = HashCombine(hi_, v);
  lo_ = HashCombine(lo_, Mix64(v ^ 0x2545f4914f6cdd1dull));
}

void FingerprintHasher::MixF64(double v) {
  // Bit-exact: distinguishes -0.0 from 0.0 and every NaN payload, which is
  // what a cache key wants (a changed constant must change the key).
  MixU64(std::bit_cast<uint64_t>(v));
}

void FingerprintHasher::MixStr(std::string_view s) {
  MixU64(s.size());
  // FNV-1a over the bytes, folded into both lanes at the end.
  MixU64(Fnv1a(s));
}

namespace {

void MixPriceBook(FingerprintHasher& h, const PriceBook& p) {
  h.MixStr(p.name);
  h.MixF64(p.egress_per_gb);
  h.MixF64(p.object_storage_per_gb_month);
  h.MixF64(p.dram_per_gb_month);
  h.MixF64(p.get_per_request);
  h.MixF64(p.put_per_request);
  h.MixF64(p.vm_per_hour);
  h.MixF64(p.cache_node_per_hour);
  h.MixU64(p.cache_node_usable_bytes);
  h.MixF64(p.flash_per_gb_month);
  h.MixF64(p.flash_node_per_hour);
  h.MixU64(p.flash_node_usable_bytes);
  h.MixF64(p.lambda_per_gb_second);
  h.MixF64(p.lambda_memory_gb);
}

void MixPacking(FingerprintHasher& h, const PackingConfig& p) {
  h.MixU64(p.block_bytes);
  h.MixU64(p.max_objects_per_block);
  h.MixI32(static_cast<int32_t>(p.policy));
  h.MixF64(p.gc_dead_fraction);
  h.MixBool(p.packing_enabled);
}

}  // namespace

Fingerprint FingerprintEngineConfig(const EngineConfig& c) {
  FingerprintHasher h;
  h.MixStr("engine-config");
  h.MixI32(static_cast<int32_t>(c.approach));
  MixPriceBook(h, c.prices);
  h.MixI32(static_cast<int32_t>(c.scenario));
  h.MixU64(c.seed);
  h.MixBool(c.measure_latency);
  h.MixI64(c.window);
  h.MixI64(c.observation);
  h.MixF64(c.decay_per_day);
  h.MixF64(c.sampling_ratio);
  h.MixI32(c.num_minicaches);
  // analyzer_threads intentionally omitted (bit-identical at any value).
  // num_shards is structural (changes routing, per-shard capacities, RNG
  // streams); shard_threads intentionally omitted (execution-only — shards
  // share no mutable state, so thread count cannot affect any output bit).
  h.MixI32(c.num_shards);
  h.MixU64(c.max_cluster_nodes);
  h.MixU64(c.static_capacity_bytes);
  h.MixI64(c.static_ttl);
  h.MixF64(c.dark_data_fraction);
  h.MixI64(c.retention);
  MixPacking(h, c.packing);
  h.MixBool(c.enable_priming);
  h.MixBool(c.enable_admission_bypass);
  h.MixI32(c.admission_bypass_windows);
  h.MixU64(c.dataset_bytes_hint);
  h.MixU64(c.min_minicache_bytes);
  h.MixF64(c.infra_scale);
  // Price shocks are result-affecting, but mixed only when present so that
  // every pre-existing (shock-free) config keeps its historical fingerprint
  // and warm sweep caches stay valid.
  if (!c.price_shocks.empty()) {
    h.MixStr("price-shocks");
    h.MixU64(c.price_shocks.size());
    for (const PriceShock& s : c.price_shocks) {
      h.MixI64(s.at);
      h.MixF64(s.egress_scale);
      h.MixF64(s.storage_scale);
      h.MixF64(s.op_scale);
    }
  }
  return h.Digest();
}

Fingerprint FingerprintWorkloadProfile(const WorkloadProfile& p) {
  FingerprintHasher h;
  h.MixStr("workload-profile");
  h.MixStr(p.name);
  h.MixI64(p.duration);
  h.MixU64(p.seed);
  h.MixU64(p.dataset_bytes);
  h.MixU64(p.mean_object_bytes);
  h.MixF64(p.object_size_sigma);
  h.MixU64(p.max_object_bytes);
  h.MixU64(p.get_bytes);
  h.MixU64(p.put_bytes);
  h.MixF64(p.delete_fraction);
  h.MixF64(p.zipf_alpha);
  h.MixF64(p.recent_get_fraction);
  h.MixF64(p.recent_get_spread);
  h.MixF64(p.fresh_get_fraction);
  h.MixF64(p.daily_shift);
  h.MixI32(static_cast<int32_t>(p.arrival));
  h.MixBool(p.short_lifetime);
  h.MixU64(p.quiet_days.size());
  for (int d : p.quiet_days) {
    h.MixI32(d);
  }
  return h.Digest();
}

Fingerprint FingerprintTraceContent(const Trace& trace) {
  FingerprintHasher h;
  h.MixStr("trace-content");
  h.MixStr(trace.name);
  h.MixU64(trace.requests.size());
  for (const Request& r : trace.requests) {
    // One pre-mixed word per record keeps this a single lane update per
    // request (traces run to millions of records).
    const uint64_t folded = Mix64(static_cast<uint64_t>(r.time)) ^
                            Mix64(r.id * 0x9e3779b97f4a7c15ull) ^
                            Mix64(r.size + 0x517cc1b727220a95ull) ^
                            static_cast<uint64_t>(r.op);
    h.MixU64(folded);
  }
  return h.Digest();
}

Fingerprint JobFingerprint(const Fingerprint& trace_identity,
                           const Fingerprint& config_fingerprint, int engine_kind) {
  FingerprintHasher h;
  h.MixStr(kSweepVersionSalt);
  h.MixU64(trace_identity.hi);
  h.MixU64(trace_identity.lo);
  h.MixU64(config_fingerprint.hi);
  h.MixU64(config_fingerprint.lo);
  h.MixI32(engine_kind);
  // Oracle accounting changed (non-overlapping residency billing, PUT
  // refresh-or-erase, double-precision break-even) and the exact oracle was
  // added; salt oracle-family jobs — and only those — so stale cached
  // oracle results are invalidated without disturbing any engine job key.
  if (engine_kind >= 2) {
    h.MixStr("oracle-v2");
  }
  return h.Digest();
}

}  // namespace sweep
}  // namespace macaron
