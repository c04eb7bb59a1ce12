// Trace record types: a single object-storage request.
//
// A Request is 24 bytes: its size and op share one 64-bit word (a 56-bit
// size field, then the op byte), so an in-memory trace of n requests takes
// 24n bytes. The op is a plain byte, not a second bit-field: a store to one
// of two bit-fields sharing a word compiles to a read-modify-write of the
// word, and materializing a trace into fresh pages then reads every page
// before writing it (a zero-page mapping, then a second fault). Every
// producer of Requests (the CSV and MCTC readers, the synthetic generators)
// keeps sizes within kMaxRequestBytes; the readers reject a larger size as
// a malformed row or a chunk that fails to decode.

#ifndef MACARON_SRC_TRACE_REQUEST_H_
#define MACARON_SRC_TRACE_REQUEST_H_

#include <cstdint>

#include "src/common/sim_time.h"

namespace macaron {

using ObjectId = uint64_t;

enum class Op : uint8_t {
  kGet = 0,
  kPut = 1,
  kDelete = 2,
};

const char* OpName(Op op);

// Largest size a Request can carry: 2^56 - 1 bytes (64 PiB), the range of
// its size field.
inline constexpr uint64_t kMaxRequestBytes = (uint64_t{1} << 56) - 1;

// One request against the remote data lake. Objects larger than the caching
// block size are split into multiple Requests by the trace splitter before
// they reach any cache (paper §7.1: 4 MB blocks for IBM/VMware, 1 MB for
// Uber). `size` is a bit-field: read it by value; it cannot be bound to a
// uint64_t& or have its address taken.
struct Request {
  SimTime time = 0;
  ObjectId id = 0;
  uint64_t size : 56 = 0;
  Op op = Op::kGet;  // the word's last byte
};
static_assert(sizeof(Request) == 24, "size and op should share one word");

inline bool operator==(const Request& a, const Request& b) {
  return a.time == b.time && a.id == b.id && a.size == b.size && a.op == b.op;
}

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_REQUEST_H_
