// In-memory trace container and derived statistics.
//
// A Trace holds every request in one vector of 24-byte Requests
// (request.h), so 3 M requests take 69 MiB; the streaming sources (the
// columnar reader, the synthetic stream generator) replay a long trace
// without that vector.

#ifndef MACARON_SRC_TRACE_TRACE_H_
#define MACARON_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/flat_index.h"
#include "src/trace/request.h"

namespace macaron {

// A time-ordered sequence of requests plus a workload name.
struct Trace {
  std::string name;
  std::vector<Request> requests;

  bool empty() const { return requests.empty(); }
  size_t size() const { return requests.size(); }
  SimTime start_time() const { return requests.empty() ? 0 : requests.front().time; }
  SimTime end_time() const { return requests.empty() ? 0 : requests.back().time; }
  SimDuration duration() const { return end_time() - start_time(); }

  // Verifies the time ordering invariant.
  bool IsSorted() const;
};

// Aggregate statistics over a trace (the columns of Table 2).
struct TraceStats {
  uint64_t num_requests = 0;
  uint64_t num_gets = 0;
  uint64_t num_puts = 0;
  uint64_t num_deletes = 0;
  uint64_t get_bytes = 0;       // total bytes fetched by GETs
  uint64_t put_bytes = 0;       // total bytes written by PUTs
  uint64_t unique_objects = 0;  // distinct object ids observed
  uint64_t unique_bytes = 0;    // total data size: sum of distinct object sizes
  uint64_t unique_get_bytes = 0;  // bytes of first-touch GETs (compulsory misses)
  double compulsory_miss_ratio = 0.0;  // unique_get_bytes / get_bytes
  double zipf_alpha = 0.0;             // least-squares fit of log freq vs log rank
  double mean_request_rate = 0.0;      // requests per second over the trace span
  uint64_t median_object_bytes = 0;

  std::string Summary() const;
};

TraceStats ComputeStats(const Trace& trace);

// Streaming accumulator behind ComputeStats: feed requests one at a time
// (in trace order) and Finish() at end of stream. Produces bit-identical
// TraceStats to ComputeStats over the same request sequence, but never
// needs the trace materialized — the out-of-core sources (columnar reader,
// synthetic stream generator) run their stats pre-pass through this.
//
// Memory is O(unique objects + distinct sizes), independent of trace length,
// and nothing is allocated per entry. Each GET/PUT object owns a dense row
// reached by one FlatIndex probe keyed by its id: the id itself (the key the
// probe compares; index cells hold none), its GET count (0 for an object
// only ever PUT), the size of its latest request and the run of consecutive
// requests it has made at that size. A request of an object at its current
// size costs that one probe. A second FlatIndex, keyed by size (read from
// the pair it names), sums (size, requests) pairs and is probed only when an
// object changes size (its finished run is folded in) and for a DELETE of an
// id no GET or PUT has named. When every request carries a fresh size, each
// request probes both tables. Finish() sorts the GET counts for the Zipf
// fit, and the rows' runs together with the size pairs for the exact median,
// so neither table's order reaches the result.
class TraceStatsBuilder {
 public:
  void Add(const Request& r);
  // Derived fields use the observed [first, last] request-time span, the
  // same span Trace::duration() yields on a sorted trace.
  TraceStats Finish() const;

 private:
  struct ObjectRow {
    ObjectId id = 0;  // the key object_slots_ compares
    uint64_t gets = 0;
    uint64_t size = 0;  // of the object's latest request
    uint64_t run = 0;   // requests at `size` since the last fold
  };
  void AddSizeRequests(uint64_t size, uint64_t requests);

  TraceStats s_;
  FlatIndex object_slots_;       // GET/PUT object id -> rows_ slot
  std::vector<ObjectRow> rows_;  // per object, in first-touch order
  FlatIndex size_slots_;         // request size -> size_counts_ slot
  std::vector<std::pair<uint64_t, uint64_t>> size_counts_;  // folded (size, requests)
  SimTime first_time_ = 0;
  SimTime last_time_ = 0;
  bool any_ = false;
};

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_TRACE_H_
