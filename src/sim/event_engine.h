// Prototype-fidelity event engine.
//
// The paper validates its simulator against the AWS prototype (Table 3,
// §7.7). We reproduce that methodology with a second execution engine on the
// same sharded runtime and component logic (sharded_runtime.h), differing
// where a real deployment differs from an instantaneous replay:
//
//   * remote fetches complete asynchronously: cache admission (OSC packing,
//     cluster insert) happens at fetch *completion*, not at request arrival;
//   * reconfiguration takes time: capacity changes and cluster scaling are
//     applied only after the modeled end-to-end reconfiguration delay, while
//     requests continue to be served;
//   * every client request pays an extra cache-engine network hop.
//
// Costs and hit distributions should track the replay engine closely (the
// paper saw <= 0.17% cost and 4-7.6% latency gaps).

#ifndef MACARON_SRC_SIM_EVENT_ENGINE_H_
#define MACARON_SRC_SIM_EVENT_ENGINE_H_

#include "src/sim/engine_config.h"
#include "src/sim/run_result.h"
#include "src/trace/request_source.h"
#include "src/trace/trace.h"

namespace macaron {

class EventEngine {
 public:
  explicit EventEngine(const EngineConfig& config) : config_(config) {}

  // Supports the Macaron approaches (with/without cluster, TTL).
  RunResult Run(const Trace& trace) const;

  // Streaming form; same semantics and bit-identity guarantees as
  // ReplayEngine::Run(RequestSource&). Rewinds the source before replaying.
  RunResult Run(RequestSource& source) const;

 private:
  EngineConfig config_;
};

}  // namespace macaron

#endif  // MACARON_SRC_SIM_EVENT_ENGINE_H_
