#include "src/pricing/price_book.h"

#include <algorithm>

namespace macaron {

PriceBook PriceBook::WithEgressScale(double factor) const {
  PriceBook out = *this;
  out.egress_per_gb *= factor;
  out.name += "-egress-x" + std::to_string(factor);
  return out;
}

PriceBook PriceBook::OpFree() const {
  PriceBook out = *this;
  out.get_per_request = 0.0;
  out.put_per_request = 0.0;
  return out;
}

PriceBook ScaledInfraPrices(const PriceBook& prices, double infra_scale) {
  PriceBook out = prices;
  out.vm_per_hour *= infra_scale;
  out.cache_node_per_hour *= infra_scale;
  out.lambda_per_gb_second *= infra_scale;
  out.cache_node_usable_bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(prices.cache_node_usable_bytes) * infra_scale));
  out.flash_node_per_hour *= infra_scale;
  out.flash_node_usable_bytes = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(prices.flash_node_usable_bytes) * infra_scale));
  return out;
}

PriceBook PriceBook::Aws(DeploymentScenario scenario) {
  PriceBook p;
  p.name = scenario == DeploymentScenario::kCrossCloud ? "aws-cross-cloud" : "aws-cross-region";
  p.egress_per_gb = scenario == DeploymentScenario::kCrossCloud ? 0.09 : 0.02;
  p.object_storage_per_gb_month = 0.023;
  p.dram_per_gb_month = 7.0;
  p.get_per_request = 0.0004 / 1000.0;
  p.put_per_request = 0.005 / 1000.0;
  return p;
}

PriceBook PriceBook::Azure(DeploymentScenario scenario) {
  PriceBook p;
  p.name =
      scenario == DeploymentScenario::kCrossCloud ? "azure-cross-cloud" : "azure-cross-region";
  p.egress_per_gb = scenario == DeploymentScenario::kCrossCloud ? 0.087 : 0.02;
  p.object_storage_per_gb_month = 0.021;
  p.dram_per_gb_month = 7.5;
  p.get_per_request = 0.0005 / 1000.0;
  p.put_per_request = 0.0065 / 1000.0;
  return p;
}

PriceBook PriceBook::Gcp(DeploymentScenario scenario) {
  PriceBook p;
  p.name = scenario == DeploymentScenario::kCrossCloud ? "gcp-cross-cloud" : "gcp-cross-region";
  p.egress_per_gb = scenario == DeploymentScenario::kCrossCloud ? 0.11 : 0.02;
  p.object_storage_per_gb_month = 0.023;
  p.dram_per_gb_month = 7.2;
  p.get_per_request = 0.0004 / 1000.0;
  p.put_per_request = 0.005 / 1000.0;
  return p;
}

}  // namespace macaron
