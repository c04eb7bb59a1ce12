#include "src/trace/column_sample.h"

#include "src/common/hash.h"

#ifndef MACARON_SIMD
#define MACARON_SIMD 1
#endif

// The AVX2 path is compiled with a function-level target attribute and
// selected at runtime, so the default baseline build (plain x86-64, no
// -mavx2) still carries it and lights it up on capable CPUs. It only
// vectorizes the Mix64 rehash; the admission compaction itself stays scalar
// branchless, which is where store-compaction is cheapest at mini-sim
// sampling ratios (a few % admitted).
#if MACARON_SIMD && defined(__x86_64__) && defined(__GNUC__)
#define MACARON_COLUMN_SAMPLE_AVX2 1
#include <immintrin.h>
#else
#define MACARON_COLUMN_SAMPLE_AVX2 0
#endif

namespace macaron {
namespace {

// Branchless scalar kernel: unconditional store, advance by predicate.
size_t CompactAdmittedScalar(const ObjectId* ids, size_t n, uint64_t salt,
                             uint64_t threshold, uint32_t* idx, uint64_t* hash) {
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Mix64(ids[i] ^ salt);
    idx[m] = static_cast<uint32_t>(i);
    hash[m] = h;
    m += static_cast<size_t>(h <= threshold);
  }
  return m;
}

#if MACARON_COLUMN_SAMPLE_AVX2

// 64-bit lane-wise multiply by a splatted constant, from 32x32->64 partial
// products (AVX2 has no _mm256_mullo_epi64): lo*lo + ((lo*hi + hi*lo) << 32).
__attribute__((target("avx2"))) inline __m256i Mul64x4(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i hi1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i hi2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(_mm256_add_epi64(hi1, hi2), 32));
}

// Mix64 (MurmurHash3 finalizer) over four lanes; bit-identical to the
// scalar Mix64 in hash.h lane by lane.
__attribute__((target("avx2"))) inline __m256i Mix64x4(__m256i x) {
  const __m256i c1 = _mm256_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdull));
  const __m256i c2 = _mm256_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ull));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64x4(x, c1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mul64x4(x, c2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

__attribute__((target("avx2"))) size_t CompactAdmittedAvx2(
    const ObjectId* ids, size_t n, uint64_t salt, uint64_t threshold,
    uint32_t* idx, uint64_t* hash) {
  static_assert(sizeof(ObjectId) == 8, "AVX2 rehash loads 64-bit id lanes");
  const __m256i vsalt = _mm256_set1_epi64x(static_cast<long long>(salt));
  size_t m = 0;
  size_t i = 0;
  alignas(32) uint64_t h4[4];
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    _mm256_store_si256(reinterpret_cast<__m256i*>(h4),
                       Mix64x4(_mm256_xor_si256(v, vsalt)));
    for (size_t j = 0; j < 4; ++j) {
      idx[m] = static_cast<uint32_t>(i + j);
      hash[m] = h4[j];
      m += static_cast<size_t>(h4[j] <= threshold);
    }
  }
  for (; i < n; ++i) {
    const uint64_t h = Mix64(ids[i] ^ salt);
    idx[m] = static_cast<uint32_t>(i);
    hash[m] = h;
    m += static_cast<size_t>(h <= threshold);
  }
  return m;
}

bool Avx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

#endif  // MACARON_COLUMN_SAMPLE_AVX2

}  // namespace

size_t CompactAdmitted(const ObjectId* ids, size_t n, uint64_t salt,
                       uint64_t threshold, uint32_t* idx, uint64_t* hash) {
#if MACARON_COLUMN_SAMPLE_AVX2
  if (Avx2Supported()) return CompactAdmittedAvx2(ids, n, salt, threshold, idx, hash);
#endif
  return CompactAdmittedScalar(ids, n, salt, threshold, idx, hash);
}

}  // namespace macaron
