#include "src/sim/engine_config.h"

#include <stdexcept>
#include <string>

namespace macaron {

void ValidateConfig(const EngineConfig& config, EngineKind engine) {
  if (config.window <= 0) {
    throw std::invalid_argument("invalid engine config: config.window must be positive");
  }
  if (engine == EngineKind::kOracle) {
    return;  // the oracles read no approach-specific field
  }
  const Approach a = config.approach;
  if (engine == EngineKind::kEvent && !IsMacaronController(a)) {
    throw std::invalid_argument(std::string("invalid engine config: config.approach ") +
                                ApproachName(a) +
                                " does not run on the event engine (macaron+cc, macaron or "
                                "macaron-ttl only)");
  }
  if (a == Approach::kStaticTtl && config.static_ttl <= 0) {
    throw std::invalid_argument(
        "invalid engine config: config.static_ttl must be positive for static-ttl");
  }
  if (a == Approach::kStaticCapacity && config.static_capacity_bytes == 0) {
    throw std::invalid_argument(
        "invalid engine config: config.static_capacity_bytes must be positive for "
        "static-capacity");
  }
  if (IsMacaronController(a) && config.observation < 0) {
    throw std::invalid_argument("invalid engine config: config.observation must be non-negative");
  }
  if (UsesController(a) && (config.analyzer_threads < 0 || config.analyzer_threads > 1024)) {
    throw std::invalid_argument(
        "invalid engine config: config.analyzer_threads must be in [0, 1024]");
  }
}

}  // namespace macaron
