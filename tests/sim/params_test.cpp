#include "sim/params.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace dhtlb::sim {
namespace {

TEST(Params, DefaultsMatchPaper) {
  const Params p;
  EXPECT_EQ(p.initial_nodes, 1000u);
  EXPECT_EQ(p.total_tasks, 100'000u);
  EXPECT_FALSE(p.heterogeneous);
  EXPECT_EQ(p.work_measure, WorkMeasure::kOneTaskPerTick);
  EXPECT_DOUBLE_EQ(p.churn_rate, 0.0);
  EXPECT_EQ(p.max_sybils, 5u);
  EXPECT_EQ(p.sybil_threshold, 0u);
  EXPECT_EQ(p.num_successors, 5u);
  EXPECT_EQ(p.decision_period, 5u);
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, ValidateRejectsZeroNodes) {
  Params p;
  p.initial_nodes = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, ValidateRejectsZeroTasks) {
  Params p;
  p.total_tasks = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, ValidateRejectsBadChurn) {
  Params p;
  p.churn_rate = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.churn_rate = 1.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.churn_rate = 1.0;
  EXPECT_NO_THROW(p.validate());
}

TEST(Params, ValidateRejectsNaNChurn) {
  Params p;
  p.churn_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, ValidateRejectsZeroKnobs) {
  Params p;
  p.max_sybils = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.num_successors = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params{};
  p.decision_period = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, EffectiveMaxTicksHonoursExplicitCap) {
  Params p;
  p.max_ticks = 77;
  EXPECT_EQ(p.effective_max_ticks(100), 77u);
}

TEST(Params, AutomaticCapScalesWithIdeal) {
  Params p;
  EXPECT_EQ(p.effective_max_ticks(100), 20'000u);
  EXPECT_EQ(p.effective_max_ticks(1), 10'000u) << "floor for tiny runs";
}

TEST(Params, DescribeMentionsKeyFields) {
  Params p;
  p.heterogeneous = true;
  p.churn_rate = 0.01;
  const std::string d = p.describe();
  EXPECT_NE(d.find("1000 nodes"), std::string::npos);
  EXPECT_NE(d.find("100000 tasks"), std::string::npos);
  EXPECT_NE(d.find("heterogeneous"), std::string::npos);
  EXPECT_NE(d.find("churn=0.01"), std::string::npos);
}

}  // namespace
}  // namespace dhtlb::sim
