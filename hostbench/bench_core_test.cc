#include "hostbench/bench_core.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace hostbench {
namespace {

TEST(NearestRankTest, PicksTheSampleAtTheCeilingRank) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(NearestRank(ten, 50), 5);   // rank ceil(5) = 5
  EXPECT_EQ(NearestRank(ten, 90), 9);   // rank 9, not 10, despite 0.9*10 rounding up
  EXPECT_EQ(NearestRank(ten, 91), 10);  // rank ceil(9.1) = 10
  EXPECT_EQ(NearestRank(ten, 100), 10);
  EXPECT_EQ(NearestRank(ten, 1), 1);
  EXPECT_EQ(NearestRank({42}, 99), 42);
}

TEST(NearestRankTest, TailRuleNeedsTenSamplesBeyondTheRank) {
  EXPECT_FALSE(PercentileSupported(0, 50));
  // p90 of 100 samples sits at rank 90: exactly 10 beyond.
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  // p99 needs 1000 samples.
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
}

TEST(MedianTest, AveragesTheMiddlePairOfAnEvenCount) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(MetricNameTest, AcceptsOnlyTheContractAlphabet) {
  EXPECT_TRUE(ValidMetricName("devices_per_s"));
  EXPECT_TRUE(ValidMetricName("fleet.device_ms_p99"));
  EXPECT_TRUE(ValidMetricName("9lives-x.y_z"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, CatalogueNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const std::vector<MetricSpec>* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_TRUE(std::string(m.better) == "higher" || std::string(m.better) == "lower");
    }
  }
  for (const WorkloadSpec& w : Workloads()) {
    EXPECT_TRUE(ValidMetricName(w.name)) << w.name;
    EXPECT_TRUE(seen.insert(w.name).second) << "duplicate " << w.name;
    EXPECT_LE(std::string(w.why).size(), 200u) << w.name;
  }
  bool has_setup = false;
  for (const MetricSpec& m : EndToEndMetrics()) {
    EXPECT_GT(m.bound, 0) << m.name;
    EXPECT_LE(m.bound, 0.25) << m.name;
    has_setup |= std::string(m.name) == "setup_s";
  }
  EXPECT_TRUE(has_setup);
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, int64_t t0, int64_t t1,
              uint32_t tid = 1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.tid = tid;
  s.t0_ns = t0;
  s.t1_ns = t1;
  return s;
}

TEST(SelfTimeTest, SubtractsNestedChildren) {
  // root [0,100) > a [10,40) > b [15,25); root > c [50,70)
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "root", 0, 100), MakeSpan(2, 1, "a", 10, 40),
      MakeSpan(3, 2, "b", 15, 25), MakeSpan(4, 1, "c", 50, 70)};
  const std::map<std::string, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at("root"), 100 - 30 - 20);
  EXPECT_EQ(self.at("a"), 30 - 10);
  EXPECT_EQ(self.at("b"), 10);
  EXPECT_EQ(self.at("c"), 20);
  int64_t total = 0;
  for (const auto& [name, ns] : self) {
    total += ns;
  }
  EXPECT_EQ(total, 100);  // nested self times sum to the root's duration
}

TEST(SelfTimeTest, MergesOverlappingChildrenFromOtherThreads) {
  // Two workers' device spans overlap under one phase span; the phase's
  // self time is what neither covers. Same-name spans accumulate.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "phase", 0, 100), MakeSpan(2, 1, "device", 10, 60, 2),
      MakeSpan(3, 1, "device", 30, 80, 3), MakeSpan(4, 1, "device", 90, 120, 2)};
  const std::map<std::string, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at("phase"), 100 - (80 - 10) - (100 - 90));  // child clipped at 100
  EXPECT_EQ(self.at("device"), 50 + 50 + 30);
}

TEST(SelfTimeTest, ChildlessAndEmptyInputs) {
  EXPECT_TRUE(SelfTimes({}).empty());
  const std::map<std::string, int64_t> self = SelfTimes({MakeSpan(7, 0, "leaf", 5, 9)});
  EXPECT_EQ(self.at("leaf"), 4);
}

}  // namespace
}  // namespace hostbench
