// Byte-size and unit helpers.
//
// Cloud providers bill per decimal gigabyte (1 GB = 10^9 bytes) while VM
// memory is specified in binary units (1 GiB = 2^30 bytes). Both appear in
// Macaron's cost model, so we name them explicitly and never use a bare
// "GB" constant.

#ifndef MACARON_SRC_COMMON_UNITS_H_
#define MACARON_SRC_COMMON_UNITS_H_

#include <cstdint>

namespace macaron {

// Binary units (memory sizing).
inline constexpr uint64_t kKiB = 1024ull;
inline constexpr uint64_t kMiB = 1024ull * kKiB;
inline constexpr uint64_t kGiB = 1024ull * kMiB;
inline constexpr uint64_t kTiB = 1024ull * kGiB;

// Decimal units (cloud billing).
inline constexpr uint64_t kKB = 1000ull;
inline constexpr uint64_t kMB = 1000ull * kKB;
inline constexpr uint64_t kGB = 1000ull * kMB;
inline constexpr uint64_t kTB = 1000ull * kGB;

// Converts a byte count to (decimal) gigabytes for billing math.
inline constexpr double BytesToGB(uint64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kGB);
}

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_UNITS_H_
