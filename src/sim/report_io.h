// What leaves a run: the full-fidelity RunResult blob (the sweep result
// store's payload and the byte-compare tests' artifact) and the controller
// decision trace as JSONL.

#ifndef MACARON_SRC_SIM_REPORT_IO_H_
#define MACARON_SRC_SIM_REPORT_IO_H_

#include <string>
#include <string_view>

#include "src/obs/decision_trace.h"
#include "src/sim/run_result.h"

namespace macaron {

// Binary round trip (magic "MCRR", versioned). Preserves every field
// bit-exactly — including the raw latency sample vector and all timelines —
// so a result loaded from the sweep's persistent store prints the same
// figure rows as the run that produced it.
// DeserializeRunResult rejects truncated, oversized, or foreign blobs.
std::string SerializeRunResult(const RunResult& r);
bool DeserializeRunResult(std::string_view blob, RunResult* out);

// Controller decision trace (src/obs/decision_trace.h) as JSONL: one
// self-contained JSON object per controller window, in window order, doubles
// at %.17g (round-trip exact). Schema documented in DESIGN.md
// ("Observability"). Deterministic: identical traces serialize to identical
// bytes.
std::string DecisionRecordJsonLine(const obs::DecisionRecord& rec);
std::string DecisionTraceJsonl(const obs::DecisionTrace& trace);
bool WriteDecisionTraceJsonl(const obs::DecisionTrace& trace, const std::string& path);

}  // namespace macaron

#endif  // MACARON_SRC_SIM_REPORT_IO_H_
