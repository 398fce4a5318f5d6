// Parameterized configuration-matrix sweep: every strategy (paper +
// extensions) must complete, conserve tasks and keep world invariants
// on every combination of heterogeneity, work measurement, threshold,
// successor-list length, churn and Sybil cap the paper's §V-B variable
// grid spans.  This is the suite that catches interaction bugs between
// strategies and exotic configurations.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/world_testing.hpp"

namespace dhtlb::sim {
namespace {

struct MatrixCase {
  std::string strategy;
  bool heterogeneous;
  WorkMeasure measure;
  std::uint64_t threshold;
  std::size_t successors;
  double churn;
  unsigned max_sybils;
};

// The test-name suffix, also what gtest prints for the parameter (no
// raw bytes, so --gtest_list_tests output is reproducible).
std::string describe(const MatrixCase& c) {
  std::string name = c.strategy;
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.heterogeneous ? "_het" : "_hom";
  name += c.measure == WorkMeasure::kStrengthPerTick ? "_strength" : "_one";
  name += "_t" + std::to_string(c.threshold);
  name += "_s" + std::to_string(c.successors);
  name += c.churn > 0 ? "_churn" : "_nochurn";
  name += "_m" + std::to_string(c.max_sybils);
  return name;
}

void PrintTo(const MatrixCase& c, std::ostream* os) { *os << describe(c); }

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return describe(info.param);
}

class EngineMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrix, CompletesConservesAndStaysConsistent) {
  const MatrixCase& c = GetParam();
  Params p;
  p.initial_nodes = 80;
  p.total_tasks = 4000;
  p.heterogeneous = c.heterogeneous;
  p.work_measure = c.measure;
  p.sybil_threshold = c.threshold;
  p.num_successors = c.successors;
  p.churn_rate = c.churn;
  p.max_sybils = c.max_sybils;

  Engine engine(p, 0xD157'0000 + c.successors,
                lb::make_strategy(c.strategy));
  const RunResult r = engine.run();

  EXPECT_TRUE(r.completed) << "run must drain all tasks";
  EXPECT_EQ(engine.world().remaining_tasks(), 0u);
  EXPECT_TRUE(testing::AuditClean(engine.world()));
  EXPECT_GE(r.ticks, engine.ideal_ticks() / 4)
      << "no run can beat the capacity bound by 4x";
  EXPECT_LT(r.runtime_factor, 60.0) << "sanity ceiling";
  // Sybil caps must hold at the end of any run.
  for (const NodeIndex idx : engine.world().alive_indices()) {
    EXPECT_LE(engine.world().sybil_count(idx),
              engine.world().sybil_cap(idx));
  }
}

std::vector<MatrixCase> matrix() {
  std::vector<MatrixCase> cases;
  const char* strategies[] = {"none",
                              "churn",
                              "random-injection",
                              "neighbor-injection",
                              "smart-neighbor-injection",
                              "invitation",
                              "strength-aware",
                              "chosen-id-neighbor",
                              "chosen-id-global"};
  for (const char* strategy : strategies) {
    const double churn =
        std::string_view(strategy) == "churn" ? 0.02 : 0.0;
    // Axis sweeps around the paper defaults, one axis at a time (a full
    // cross product would be thousands of slow runs for little extra
    // signal; interactions specific to heterogeneity x measure are
    // covered explicitly below).
    cases.push_back({strategy, false, WorkMeasure::kOneTaskPerTick, 0, 5,
                     churn, 5});
    cases.push_back({strategy, true, WorkMeasure::kOneTaskPerTick, 0, 5,
                     churn, 5});
    cases.push_back({strategy, true, WorkMeasure::kStrengthPerTick, 0, 5,
                     churn, 5});
    cases.push_back({strategy, false, WorkMeasure::kOneTaskPerTick, 10, 5,
                     churn, 5});
    cases.push_back({strategy, false, WorkMeasure::kOneTaskPerTick, 0, 10,
                     churn, 5});
    cases.push_back({strategy, true, WorkMeasure::kStrengthPerTick, 0, 5,
                     churn, 10});
  }
  // Churn layered under every Sybil strategy (the §VI-B.1 ablation).
  for (const char* strategy :
       {"random-injection", "neighbor-injection", "invitation"}) {
    cases.push_back({strategy, false, WorkMeasure::kOneTaskPerTick, 0, 5,
                     0.02, 5});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigurations, EngineMatrix,
                         ::testing::ValuesIn(matrix()), case_name);

}  // namespace
}  // namespace dhtlb::sim
