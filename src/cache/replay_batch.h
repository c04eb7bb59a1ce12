// SoA batch of sampled requests awaiting mini-sim replay.
//
// The mini-sim banks buffer sampled requests and replay each batch against
// every grid point's mini-cache, so one buffered request is read dozens of
// times. Column (structure-of-arrays) layout keeps those replay loops on
// dense, homogeneous arrays — the id/hash columns the inner loop always
// touches are not interleaved with the times column only the TTL/ALC banks
// read — and carries the per-request hash computed once at ingest (the
// sampler's admission hash, SHARDS-style), so no replay path rehashes.
//
// The hash column is the *bank's* hash domain (Mix64(id ^ bank_salt)); it
// must only be fed to caches that see that same domain exclusively. Index
// hashes affect table layout, never hit/miss/eviction results, so curves
// are unchanged by the choice of salt (see flat_index.h).

#ifndef MACARON_SRC_CACHE_REPLAY_BATCH_H_
#define MACARON_SRC_CACHE_REPLAY_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
#include "src/trace/request.h"

namespace macaron {

struct ReplayBatch {
  std::vector<ObjectId> ids;
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> sizes;
  std::vector<Op> ops;
  std::vector<SimTime> times;

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }

  void Reserve(size_t n) {
    ids.reserve(n);
    hashes.reserve(n);
    sizes.reserve(n);
    ops.reserve(n);
    times.reserve(n);
  }

  void Clear() {
    ids.clear();
    hashes.clear();
    sizes.clear();
    ops.clear();
    times.clear();
  }

  void PushBack(const Request& r, uint64_t hash) {
    ids.push_back(r.id);
    hashes.push_back(hash);
    sizes.push_back(r.size);
    ops.push_back(r.op);
    times.push_back(r.time);
  }

  // Column-wise append of one row, for scattering rows between SoA batches
  // without round-tripping through a Request struct.
  void Append(ObjectId id, uint64_t hash, uint64_t size, Op op, SimTime time) {
    ids.push_back(id);
    hashes.push_back(hash);
    sizes.push_back(size);
    ops.push_back(op);
    times.push_back(time);
  }

  // Bulk append of the contiguous rows [begin, end) of `src` — five column
  // memmoves instead of per-row push_backs. The single-shard engines
  // partition whole chunk segments this way.
  void AppendRange(const ReplayBatch& src, size_t begin, size_t end) {
    ids.insert(ids.end(), src.ids.begin() + begin, src.ids.begin() + end);
    hashes.insert(hashes.end(), src.hashes.begin() + begin, src.hashes.begin() + end);
    sizes.insert(sizes.end(), src.sizes.begin() + begin, src.sizes.begin() + end);
    ops.insert(ops.end(), src.ops.begin() + begin, src.ops.begin() + end);
    times.insert(times.end(), src.times.begin() + begin, src.times.begin() + end);
  }

  // Grows every column by `n` default-initialized rows and returns the old
  // size — the base offset for writers that scatter rows into place through
  // the raw column pointers (count-then-bulk-copy shard partitioning).
  size_t GrowBy(size_t n) {
    const size_t base = ids.size();
    ids.resize(base + n);
    hashes.resize(base + n);
    sizes.resize(base + n);
    ops.resize(base + n);
    times.resize(base + n);
    return base;
  }

  // Gather-append of `n` rows of `src` picked by `idx` (positions relative
  // to `src_base`), with the hash column overridden by `with_hashes`: the
  // mini-sim banks compact sampler-admitted rows out of an engine chunk
  // this way, substituting the bank's own salted hash domain for the
  // chunk's ingest hashes.
  void AppendGather(const ReplayBatch& src, size_t src_base, const uint32_t* idx,
                    const uint64_t* with_hashes, size_t n) {
    const size_t base = GrowBy(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t k = src_base + idx[i];
      ids[base + i] = src.ids[k];
      hashes[base + i] = with_hashes[i];
      sizes[base + i] = src.sizes[k];
      ops[base + i] = src.ops[k];
      times[base + i] = src.times[k];
    }
  }

  // The row as a Request (scalar compatibility paths consume rows in stream
  // order as structs).
  Request RowAt(size_t i) const { return Request{times[i], ids[i], sizes[i], ops[i]}; }
};

}  // namespace macaron

#endif  // MACARON_SRC_CACHE_REPLAY_BATCH_H_
