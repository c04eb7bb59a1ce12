// Stable fingerprints for sweep jobs.
//
// The persistent result store keys each simulation by a 128-bit digest of
// (trace identity, engine-config contents, engine kind, code-version salt).
// Fingerprints are computed field by field — never by hashing raw struct
// bytes — so padding, heap-allocated members, and field reordering cannot
// silently change or alias keys. Two escape hatches keep cached results
// honest as the code evolves:
//
//  * kSweepVersionSalt is folded into every job fingerprint. Bump it when
//    engine or generator semantics change in a way the config fields do not
//    capture; every cached result is invalidated at once.
//  * Named synthetic traces are fingerprinted by their WorkloadProfile
//    parameters (cheap, no generation needed); ad-hoc traces by content.
//
// EngineConfig::analyzer_threads is deliberately excluded: the analyzer's
// fan-out yields bit-identical curves at any thread count (see
// DESIGN.md "Analyzer threading model"), so results are shared across it.
// EngineConfig::shard_threads is excluded for the same reason (serving
// shards share no mutable state — see DESIGN.md "Sharded serving"), while
// num_shards IS fingerprinted: it changes routing and per-shard capacity
// splits, i.e. the simulated deployment itself.
// The observability sink pointers (EngineConfig::decision_trace / metrics)
// are likewise excluded: attaching them never changes a result, only emits
// a side-channel trace, so warm cached results stay valid either way.

#ifndef MACARON_SRC_SWEEP_FINGERPRINT_H_
#define MACARON_SRC_SWEEP_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/hash.h"
#include "src/sim/engine_config.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"

namespace macaron {
namespace sweep {

// Bump to invalidate every persisted result (engine semantics changed).
// v2: analyzer excludes deletes from mean_object_bytes; cluster sizer
// recomputes capacity/latency after the max_nodes clamp.
// v3: in-flight coalescer invalidation on mid-flight evict/expire/delete
// (stale fills no longer admit or coalesce), sharded serving engine.
// v4: the event engine sizes its analyzer grid (1.15x the dataset, honouring
// dataset_bytes_hint) and policy like the replay engine, and sums realized
// cost in the same order.
// v5: kOracle jobs run the exact DP on the op-free price book (their dollars
// move in the last bits), and OSC garbage collection visits due blocks in
// ascending block id.
inline constexpr std::string_view kSweepVersionSalt = "macaron-sweep-v5";

struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool IsZero() const { return hi == 0 && lo == 0; }
  // 32 lowercase hex characters; used as the result-store file stem.
  std::string Hex() const;
};

inline bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.hi == b.hi && a.lo == b.lo;
}
inline bool operator!=(const Fingerprint& a, const Fingerprint& b) { return !(a == b); }

// Order-sensitive accumulator over typed fields. The two lanes are seeded
// and mixed differently, so the digest behaves as a 128-bit hash even
// though each lane is 64-bit arithmetic.
class FingerprintHasher {
 public:
  FingerprintHasher() = default;

  void MixU64(uint64_t v);
  void MixI64(int64_t v) { MixU64(static_cast<uint64_t>(v)); }
  void MixI32(int32_t v) { MixU64(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void MixBool(bool v) { MixU64(v ? 1 : 0); }
  void MixF64(double v);
  void MixStr(std::string_view s);

  Fingerprint Digest() const { return {hi_, lo_}; }

 private:
  uint64_t hi_ = 0x9ae16a3b2f90404full;
  uint64_t lo_ = 0xc3a5c85c97cb3127ull;
};

// Fingerprint of every result-affecting EngineConfig field (including the
// full PriceBook and PackingConfig; excluding analyzer_threads, see above).
Fingerprint FingerprintEngineConfig(const EngineConfig& config);

// Identity of a named synthetic trace: the profile parameters that determine
// its generated (and split) contents. No trace generation is required.
Fingerprint FingerprintWorkloadProfile(const WorkloadProfile& profile);

// Identity of an arbitrary in-memory trace: name, length, and every record.
Fingerprint FingerprintTraceContent(const Trace& trace);

// Final result-store key: trace identity + config + engine kind + salt.
// `engine_kind` disambiguates replay / event / oracle runs of the same
// (trace, config) pair.
Fingerprint JobFingerprint(const Fingerprint& trace_identity,
                           const Fingerprint& config_fingerprint, int engine_kind);

}  // namespace sweep
}  // namespace macaron

#endif  // MACARON_SRC_SWEEP_FINGERPRINT_H_
