// Unit tests for src/pricing: price books (Table 1), cost metering, and the
// time-varying price schedule (shock epochs).

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/sim_time.h"
#include "src/common/units.h"
#include "src/pricing/cost_meter.h"
#include "src/pricing/price_book.h"
#include "src/pricing/price_schedule.h"

namespace macaron {
namespace {

TEST(PriceBookTest, AwsCrossCloudMatchesTable1) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_DOUBLE_EQ(p.egress_per_gb, 0.09);
  EXPECT_DOUBLE_EQ(p.object_storage_per_gb_month, 0.023);
  EXPECT_NEAR(p.get_per_request * 1000.0, 0.0004, 1e-12);
  EXPECT_NEAR(p.put_per_request * 1000.0, 0.005, 1e-12);
}

TEST(PriceBookTest, CrossRegionEgressIsTwoCents) {
  EXPECT_DOUBLE_EQ(PriceBook::Aws(DeploymentScenario::kCrossRegion).egress_per_gb, 0.02);
  EXPECT_DOUBLE_EQ(PriceBook::Azure(DeploymentScenario::kCrossRegion).egress_per_gb, 0.02);
  EXPECT_DOUBLE_EQ(PriceBook::Gcp(DeploymentScenario::kCrossRegion).egress_per_gb, 0.02);
}

TEST(PriceBookTest, PutIsAboutTwelveTimesGet) {
  // §6.1: object storage writes are 12.5-13x more expensive than reads.
  for (const PriceBook& p :
       {PriceBook::Aws(DeploymentScenario::kCrossCloud),
        PriceBook::Azure(DeploymentScenario::kCrossCloud),
        PriceBook::Gcp(DeploymentScenario::kCrossCloud)}) {
    const double ratio = p.put_per_request / p.get_per_request;
    EXPECT_GE(ratio, 12.0) << p.name;
    EXPECT_LE(ratio, 13.5) << p.name;
  }
}

TEST(PriceBookTest, DramIsHundredsOfTimesObjectStorage) {
  // §4.1: object storage capacity is ~300x cheaper than DRAM.
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const double ratio = p.dram_per_gb_month / p.object_storage_per_gb_month;
  EXPECT_GT(ratio, 200.0);
  EXPECT_LT(ratio, 600.0);
}

TEST(PriceBookTest, EgressCostLinearInBytes) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_DOUBLE_EQ(p.EgressCost(10 * kGB), 0.9);
  EXPECT_DOUBLE_EQ(p.EgressCost(0), 0.0);
}

TEST(PriceBookTest, StorageCostProratesByMonth) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_NEAR(p.StorageCost(100 * kGB, kBillingMonth), 2.3, 1e-9);
  EXPECT_NEAR(p.StorageCost(100 * kGB, kBillingMonth / 2), 1.15, 1e-9);
}

TEST(PriceBookTest, BreakEvenHorizons) {
  // §5.2: storing an object costs as much as one egress after ~116 days
  // cross-cloud and ~26 days cross-region.
  const SimDuration cc = PriceBook::Aws(DeploymentScenario::kCrossCloud).StorageEgressBreakEven();
  const SimDuration cr = PriceBook::Aws(DeploymentScenario::kCrossRegion).StorageEgressBreakEven();
  EXPECT_NEAR(DurationDays(cc), 117.4, 1.0);
  EXPECT_NEAR(DurationDays(cr), 26.1, 0.5);
}

TEST(PriceBookTest, BreakEvenExactValues) {
  // Pin the horizons to the millisecond. The exact values are fractional:
  // 0.09/0.023 * 30d = 10142608695.65... ms cross-cloud (rounds to ...696)
  // and 0.02/0.023 * 30d = 2253913043.47... ms cross-region (rounds to
  // ...043). Comparisons that gate keep/drop decisions use the double form
  // (StorageEgressBreakEvenMs); the rounded integer is reporting-only.
  const PriceBook cc = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const PriceBook cr = PriceBook::Aws(DeploymentScenario::kCrossRegion);
  EXPECT_EQ(cc.StorageEgressBreakEven(), 10142608696);
  EXPECT_EQ(cr.StorageEgressBreakEven(), 2253913043);
  EXPECT_NEAR(cc.StorageEgressBreakEvenMs(), 0.09 / 0.023 * 2'592'000'000.0, 1e-3);
  EXPECT_NEAR(cr.StorageEgressBreakEvenMs(), 0.02 / 0.023 * 2'592'000'000.0, 1e-3);
  // The double form must not have been truncated toward zero anywhere: the
  // rounded integer sits within half a millisecond of the true horizon.
  EXPECT_LT(std::abs(static_cast<double>(cc.StorageEgressBreakEven()) -
                     cc.StorageEgressBreakEvenMs()),
            0.5 + 1e-9);
}

TEST(PriceBookTest, WithEgressScale) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud).WithEgressScale(0.1);
  EXPECT_NEAR(p.egress_per_gb, 0.009, 1e-12);
}

TEST(ScaledInfraPricesTest, ScalesInfraOnly) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const PriceBook s = ScaledInfraPrices(p, 0.001);
  EXPECT_NEAR(s.vm_per_hour, p.vm_per_hour * 0.001, 1e-12);
  EXPECT_NEAR(s.lambda_per_gb_second, p.lambda_per_gb_second * 0.001, 1e-15);
  EXPECT_EQ(s.cache_node_usable_bytes, p.cache_node_usable_bytes / 1000);
  EXPECT_DOUBLE_EQ(s.egress_per_gb, p.egress_per_gb);        // data prices untouched
  EXPECT_DOUBLE_EQ(s.object_storage_per_gb_month, p.object_storage_per_gb_month);
}

TEST(PriceBookTest, OperationCosts) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_NEAR(p.GetCost(1000), 0.0004, 1e-12);
  EXPECT_NEAR(p.PutCost(1000), 0.005, 1e-12);
}

TEST(PriceBookTest, VmAndLambdaCosts) {
  const PriceBook p = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  EXPECT_NEAR(p.VmCost(10 * kHour), 2.52, 1e-9);
  EXPECT_NEAR(p.LambdaCost(1000.0), 0.0166667, 1e-6);
}

TEST(CostMeterTest, AddAndTotal) {
  CostMeter m;
  m.Add(CostCategory::kEgress, 1.5);
  m.Add(CostCategory::kEgress, 0.5);
  m.Add(CostCategory::kCapacity, 3.0);
  EXPECT_DOUBLE_EQ(m.Get(CostCategory::kEgress), 2.0);
  EXPECT_DOUBLE_EQ(m.Total(), 5.0);
}

TEST(CostMeterTest, Merge) {
  CostMeter a;
  CostMeter b;
  a.Add(CostCategory::kInfra, 1.0);
  b.Add(CostCategory::kInfra, 2.0);
  b.Add(CostCategory::kServerless, 4.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Get(CostCategory::kInfra), 3.0);
  EXPECT_DOUBLE_EQ(a.Total(), 7.0);
}

TEST(CostMeterTest, BreakdownMentionsEveryCategory) {
  CostMeter m;
  const std::string text = m.Breakdown();
  for (int i = 0; i < static_cast<int>(CostCategory::kNumCategories); ++i) {
    EXPECT_NE(text.find(CostCategoryName(static_cast<CostCategory>(i))), std::string::npos);
  }
}

TEST(CostMeterTest, CategoryNames) {
  EXPECT_STREQ(CostCategoryName(CostCategory::kEgress), "egress");
  EXPECT_STREQ(CostCategoryName(CostCategory::kServerless), "serverless");
}

// ---------------------------------------------------------------------------
// PriceSchedule (time-varying prices).

TEST(PriceScheduleTest, ApplyShockScalesDataRatesOnly) {
  const PriceBook base = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  PriceShock shock;
  shock.egress_scale = 2.0;
  shock.storage_scale = 3.0;
  shock.op_scale = 4.0;
  const PriceBook b = ApplyPriceShock(base, shock);
  EXPECT_DOUBLE_EQ(b.egress_per_gb, base.egress_per_gb * 2.0);
  EXPECT_DOUBLE_EQ(b.object_storage_per_gb_month, base.object_storage_per_gb_month * 3.0);
  EXPECT_DOUBLE_EQ(b.dram_per_gb_month, base.dram_per_gb_month * 3.0);
  EXPECT_DOUBLE_EQ(b.flash_per_gb_month, base.flash_per_gb_month * 3.0);
  EXPECT_DOUBLE_EQ(b.get_per_request, base.get_per_request * 4.0);
  EXPECT_DOUBLE_EQ(b.put_per_request, base.put_per_request * 4.0);
  // Infrastructure rates are not shocked.
  EXPECT_DOUBLE_EQ(b.vm_per_hour, base.vm_per_hour);
  EXPECT_DOUBLE_EQ(b.cache_node_per_hour, base.cache_node_per_hour);
  EXPECT_DOUBLE_EQ(b.lambda_per_gb_second, base.lambda_per_gb_second);
}

TEST(PriceScheduleTest, EmptyScheduleIsConstant) {
  const PriceBook base = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const PriceSchedule sched(base);
  EXPECT_TRUE(sched.constant());
  EXPECT_EQ(sched.num_epochs(), 1u);
  EXPECT_DOUBLE_EQ(sched.At(0).egress_per_gb, base.egress_per_gb);
  EXPECT_DOUBLE_EQ(sched.At(100 * kDay).egress_per_gb, base.egress_per_gb);
  EXPECT_NEAR(sched.StorageCostOver(100 * kGB, 0, kBillingMonth), 2.3, 1e-9);
}

TEST(PriceScheduleTest, EpochLookupAtBoundaries) {
  const PriceBook base = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  PriceShock shock;
  shock.at = kDay;
  shock.egress_scale = 2.0;
  const PriceSchedule sched(base, {shock});
  EXPECT_EQ(sched.num_epochs(), 2u);
  EXPECT_DOUBLE_EQ(sched.At(kDay - 1).egress_per_gb, 0.09);
  // The shock takes effect exactly at its timestamp.
  EXPECT_DOUBLE_EQ(sched.At(kDay).egress_per_gb, 0.18);
  EXPECT_DOUBLE_EQ(sched.At(kDay + 1).egress_per_gb, 0.18);
}

TEST(PriceScheduleTest, SameInstantShocksCompose) {
  const PriceBook base = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  PriceShock a;
  a.at = kHour;
  a.egress_scale = 2.0;
  PriceShock b;
  b.at = kHour;
  b.egress_scale = 3.0;
  const PriceSchedule sched(base, {a, b});
  EXPECT_EQ(sched.num_epochs(), 2u);
  EXPECT_DOUBLE_EQ(sched.At(kHour).egress_per_gb, 0.09 * 6.0);
}

TEST(PriceScheduleTest, StorageCostOverCrossesEpochs) {
  const PriceBook base = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  PriceShock shock;
  shock.at = kDay;
  shock.storage_scale = 10.0;
  const PriceSchedule sched(base, {shock});
  // [12h, 36h): 12h at the base rate, 12h at 10x.
  const double expected =
      base.StorageCost(1 * kGB, 12 * kHour) + 10.0 * base.StorageCost(1 * kGB, 12 * kHour);
  EXPECT_NEAR(sched.StorageCostOver(1 * kGB, 12 * kHour, 36 * kHour), expected, 1e-12);
  // Degenerate and single-epoch intervals.
  EXPECT_EQ(sched.StorageCostOver(1 * kGB, kHour, kHour), 0.0);
  EXPECT_NEAR(sched.StorageCostOver(1 * kGB, 2 * kDay, 3 * kDay),
              10.0 * base.StorageCost(1 * kGB, kDay), 1e-12);
}

TEST(PriceScheduleTest, AlignShocksToWindows) {
  PriceShock early;
  early.at = -5;
  PriceShock mid;
  mid.at = 16 * kMinute;
  PriceShock exact;
  exact.at = 30 * kMinute;
  const std::vector<PriceShock> aligned =
      AlignShocksToWindows({early, mid, exact}, 15 * kMinute);
  ASSERT_EQ(aligned.size(), 3u);
  EXPECT_EQ(aligned[0].at, 0);                // at <= 0 pins to the run start
  EXPECT_EQ(aligned[1].at, 30 * kMinute);     // rounds up to the next boundary
  EXPECT_EQ(aligned[2].at, 30 * kMinute);     // already on a boundary: unchanged
}

}  // namespace
}  // namespace macaron
