#include "src/trace/sampler.h"

#include <cmath>

#include "src/common/check.h"
#include "src/trace/column_sample.h"

namespace macaron {

SpatialSampler::SpatialSampler(double ratio, uint64_t salt) : ratio_(ratio), salt_(salt) {
  MACARON_CHECK(ratio > 0.0 && ratio <= 1.0);
  if (ratio >= 1.0) {
    threshold_ = ~0ull;
  } else {
    threshold_ = static_cast<uint64_t>(std::ldexp(ratio, 64));
  }
}

size_t SpatialSampler::CompactAdmitted(const ObjectId* ids, size_t n, uint32_t* idx,
                                       uint64_t* hash) const {
  return macaron::CompactAdmitted(ids, n, salt_, threshold_, idx, hash);
}

}  // namespace macaron
