// Columnar spatial-sampling admission: hash an id column and compact the
// admitted rows' positions + hashes, branch-free.
//
// The mini-sim banks consume engine chunks as column ranges (ProcessColumns).
// Each bank's admission hash lives in its own salted domain — Mix64(id ^
// bank_salt), not the engines' ingest-domain Mix64(id) carried in the chunk's
// hash column — so the bank pass must rehash the id column. CompactAdmitted
// fuses that rehash with the SHARDS admission test (hash <= threshold) and
// emits a dense survivor list in one pass:
//
//   idx[m]  — row position relative to the range start (uint32; ranges are
//             bounded by the trace chunk size, far below 2^32)
//   hash[m] — the salted admission hash, reused as the admitted request's
//             prehashed mini-cache index hash (see sampler.h)
//
// The compaction is branchless (unconditionally store, advance by the
// admission predicate) so sampling ratio doesn't feed the branch predictor.
// When MACARON_SIMD is on and the CPU supports AVX2, the Mix64 rehash runs
// four lanes at a time behind a runtime dispatch; both paths compute the
// identical hash sequence, so results are bit-equal by construction (the
// differential suite pins this).

#ifndef MACARON_SRC_TRACE_COLUMN_SAMPLE_H_
#define MACARON_SRC_TRACE_COLUMN_SAMPLE_H_

#include <cstddef>
#include <cstdint>

#include "src/trace/trace.h"

namespace macaron {

// Hashes ids[0..n) with Mix64(id ^ salt) and compacts rows whose hash is
// <= threshold. Returns the number of admitted rows written to idx/hash
// (both must have room for n entries).
size_t CompactAdmitted(const ObjectId* ids, size_t n, uint64_t salt,
                       uint64_t threshold, uint32_t* idx, uint64_t* hash);

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_COLUMN_SAMPLE_H_
