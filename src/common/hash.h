// Stateless 64-bit hashing: mixing for spatial sampling and consistent
// hashing, and FNV-1a for byte-string checksums.

#ifndef MACARON_SRC_COMMON_HASH_H_
#define MACARON_SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace macaron {

// Finalizer from MurmurHash3; a high-quality stateless 64-bit mixer.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Combines two 64-bit values into one hash (order-sensitive).
inline constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

// FNV-1a's 64-bit offset basis and prime. A caller that checksums bytes
// as it parses them folds each byte c into h as (h ^ c) * kFnv1aPrime,
// starting from kFnv1aBasis, and gets Fnv1a of the bytes it folded.
inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1aPrime = 0x100000001b3ull;

// 64-bit FNV-1a over a byte string. It checksums every framed file format
// (MCTC chunks and footers, ResultStore blobs) and hashes the strings
// folded into sweep fingerprints, so its output is part of on-disk bytes
// and cache keys and must never change.
inline constexpr uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = kFnv1aBasis;
  for (unsigned char c : bytes) {
    h = (h ^ c) * kFnv1aPrime;
  }
  return h;
}

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_HASH_H_
