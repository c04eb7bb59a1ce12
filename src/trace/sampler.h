// Spatial sampling: hash-based object sampling (the SHARDS construction)
// used both for trace collection (Uber trace, Appendix A.1) and by the
// miniature-simulation workload analyzer (§5.2).

#ifndef MACARON_SRC_TRACE_SAMPLER_H_
#define MACARON_SRC_TRACE_SAMPLER_H_

#include <cstdint>

#include "src/common/hash.h"
#include "src/trace/trace.h"

namespace macaron {

// Admits objects whose hashed id falls below ratio * 2^64; every request on
// an admitted object is kept, preserving per-object access sequences.
//
// The admission hash is a full 64-bit Mix64 of the salted id, so (SHARDS)
// it doubles as the admitted object's cache-index hash: callers fetch it
// once with Hash() and reuse it for both the admission test (AdmitHashed)
// and every prehashed mini-cache operation on that request, instead of
// rehashing per grid point.
class SpatialSampler {
 public:
  // ratio in (0, 1]; salt decorrelates independent samplers.
  SpatialSampler(double ratio, uint64_t salt);

  // The admission hash for `id` (a fixed bijective mix of id ^ salt).
  uint64_t Hash(ObjectId id) const { return Mix64(id ^ salt_); }

  bool Admit(ObjectId id) const { return AdmitHashed(Hash(id)); }

  // Admission test on a hash previously returned by Hash().
  bool AdmitHashed(uint64_t hash) const { return hash <= threshold_; }

  // Columnar admission over an id column (see column_sample.h): hashes
  // ids[0..n) in this sampler's salted domain and compacts the admitted
  // rows' positions and hashes into idx/hash (room for n entries each),
  // branch-free. Returns the admitted count. Row order is preserved, and
  // each emitted hash equals Hash(ids[idx[j]]) exactly, so a columnar
  // caller admits the same rows with the same reusable hashes as a per-row
  // Admit/Hash loop.
  size_t CompactAdmitted(const ObjectId* ids, size_t n, uint32_t* idx,
                         uint64_t* hash) const;

  double ratio() const { return ratio_; }

 private:
  double ratio_;
  uint64_t salt_;
  uint64_t threshold_;
};

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_SAMPLER_H_
