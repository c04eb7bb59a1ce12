// Cloud price books.
//
// Prices follow Table 1 of the paper (N. Virginia, <10 TB Internet egress,
// inter-region within N. America, <50 TB storage). Infrastructure prices
// (VM, serverless) follow §6.3 / Appendix A.2 (r5.xlarge master and cache
// nodes, 8 GiB Lambda functions).

#ifndef MACARON_SRC_PRICING_PRICE_BOOK_H_
#define MACARON_SRC_PRICING_PRICE_BOOK_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/common/sim_time.h"
#include "src/common/units.h"

namespace macaron {

// Whether the remote data lake sits in another cloud provider or another
// region of the same provider; selects the egress rate.
enum class DeploymentScenario {
  kCrossCloud,
  kCrossRegion,
};

// All prices in dollars.
struct PriceBook {
  std::string name;

  // Per decimal GB moved out of the remote side toward the local side.
  double egress_per_gb = 0.09;
  // Object storage capacity per GB-month (30-day month).
  double object_storage_per_gb_month = 0.023;
  // DRAM capacity per GB-month (for the DRAM-priced capacity model of ECPC).
  double dram_per_gb_month = 7.0;
  // Object storage request prices (per single request).
  double get_per_request = 0.0004 / 1000.0;  // 0.04 cents / 1k
  double put_per_request = 0.005 / 1000.0;   // 0.5 cents / 1k
  // Master / controller VM (r5.xlarge on-demand).
  double vm_per_hour = 0.252;
  // Cache node VM (r5.xlarge; ~26 GiB usable by Redis per Appendix A.2).
  double cache_node_per_hour = 0.252;
  uint64_t cache_node_usable_bytes = 26 * kGiB;
  // Flash capacity per GB-month (block storage) and a flash cache node
  // (i3en-class NVMe instance) — for the §4.1 future-work flash tier.
  double flash_per_gb_month = 0.08;
  double flash_node_per_hour = 0.226;
  uint64_t flash_node_usable_bytes = 950 * kGB;
  // Serverless (Lambda): per GB-second, and the memory per function.
  double lambda_per_gb_second = 0.0000166667;
  double lambda_memory_gb = 8.0;

  // --- Derived helpers ---

  double EgressCost(uint64_t bytes) const { return BytesToGB(bytes) * egress_per_gb; }
  double StorageCost(uint64_t bytes, SimDuration d) const {
    return BytesToGB(bytes) * object_storage_per_gb_month * DurationMonths(d);
  }
  double DramCost(uint64_t bytes, SimDuration d) const {
    return BytesToGB(bytes) * dram_per_gb_month * DurationMonths(d);
  }
  double FlashCost(uint64_t bytes, SimDuration d) const {
    return BytesToGB(bytes) * flash_per_gb_month * DurationMonths(d);
  }
  double GetCost(uint64_t n) const { return static_cast<double>(n) * get_per_request; }
  double PutCost(uint64_t n) const { return static_cast<double>(n) * put_per_request; }
  double VmCost(SimDuration d) const { return vm_per_hour * DurationHours(d); }
  double CacheNodeCost(uint64_t nodes, SimDuration d) const {
    return cache_node_per_hour * static_cast<double>(nodes) * DurationHours(d);
  }
  double LambdaCost(double gb_seconds) const { return lambda_per_gb_second * gb_seconds; }

  // Storage-equals-egress break-even horizon: how long storing a byte costs
  // as much as re-fetching it (~116 days cross-cloud, ~26 days cross-region
  // per §5.2). The exact horizon is fractional milliseconds; comparisons
  // that gate keep/drop decisions must use the double form, not a truncated
  // integer (truncation shifted the boundary by up to 1 ms and flipped
  // decisions exactly at the horizon).
  double StorageEgressBreakEvenMs() const {
    return egress_per_gb / object_storage_per_gb_month * static_cast<double>(kBillingMonth);
  }
  SimDuration StorageEgressBreakEven() const {
    return static_cast<SimDuration>(std::llround(StorageEgressBreakEvenMs()));
  }

  // A copy with the egress price scaled by `factor` (Fig 12a sensitivity).
  PriceBook WithEgressScale(double factor) const;
  // A copy with GET and PUT request prices zeroed: §5.4's perfect-packing
  // basket, the one Oracular is scored on. Price shocks scale request
  // prices, so they stay zero in every epoch.
  PriceBook OpFree() const;

  // --- Factory functions ---
  static PriceBook Aws(DeploymentScenario scenario);
  static PriceBook Azure(DeploymentScenario scenario);
  static PriceBook Gcp(DeploymentScenario scenario);
};

// Returns `prices` with VM/node/Lambda rates and node memory scaled by
// `infra_scale` (the engines' byte-scale correction; see
// EngineConfig::infra_scale).
PriceBook ScaledInfraPrices(const PriceBook& prices, double infra_scale);

}  // namespace macaron

#endif  // MACARON_SRC_PRICING_PRICE_BOOK_H_
