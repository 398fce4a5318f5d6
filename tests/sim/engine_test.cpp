#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "lb/factory.hpp"
#include "sim/world_testing.hpp"

namespace dhtlb::sim {
namespace {

Params tiny(std::size_t nodes = 50, std::uint64_t tasks = 5000) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

TEST(Engine, IdealTicksIsCeilOfTasksOverCapacity) {
  Engine e1(tiny(100, 1000), 1);
  EXPECT_EQ(e1.ideal_ticks(), 10u);
  Engine e2(tiny(100, 1001), 1);
  EXPECT_EQ(e2.ideal_ticks(), 11u) << "partial tick rounds up";
  Engine e3(tiny(100, 99), 1);
  EXPECT_EQ(e3.ideal_ticks(), 1u);
}

TEST(Engine, BaselineRunsToCompletion) {
  Engine engine(tiny(), 7);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(engine.world().remaining_tasks(), 0u);
  EXPECT_EQ(r.strategy_name, "none");
  EXPECT_EQ(r.joins, 0u);
  EXPECT_EQ(r.leaves, 0u);
  EXPECT_EQ(r.strategy_counters.sybils_created, 0u);
}

TEST(Engine, BaselineRuntimeFactorAtLeastOne) {
  // With n fixed nodes consuming 1 task/tick, runtime >= max initial
  // load >= mean load => factor >= 1.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Engine engine(tiny(), seed);
    const RunResult r = engine.run();
    EXPECT_GE(r.runtime_factor, 1.0) << "seed " << seed;
  }
}

TEST(Engine, BaselineRuntimeEqualsMaxInitialLoad) {
  // Without churn or Sybils, every node drains independently at one task
  // per tick, so the run lasts exactly max(initial workload) ticks.
  Engine engine(tiny(), 11);
  const auto loads = engine.world().alive_workloads();
  const std::uint64_t max_load =
      *std::max_element(loads.begin(), loads.end());
  const RunResult r = engine.run();
  EXPECT_EQ(r.ticks, max_load);
}

TEST(Engine, DeterministicAcrossRuns) {
  const Params p = tiny();
  Engine a(p, 12345, lb::make_strategy("random-injection"));
  Engine b(p, 12345, lb::make_strategy("random-injection"));
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.ticks, rb.ticks);
  EXPECT_EQ(ra.strategy_counters.sybils_created,
            rb.strategy_counters.sybils_created);
}

TEST(Engine, DifferentSeedsGiveDifferentRuns) {
  Engine a(tiny(), 1);
  Engine b(tiny(), 2);
  EXPECT_NE(a.run().ticks, b.run().ticks);
}

TEST(Engine, StepAdvancesOneTick) {
  Engine engine(tiny(10, 100), 3);
  EXPECT_EQ(engine.current_tick(), 0u);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.current_tick(), 1u);
}

TEST(Engine, StepReturnsFalseWhenDrained) {
  Engine engine(tiny(10, 20), 4);
  while (engine.step()) {
  }
  EXPECT_EQ(engine.world().remaining_tasks(), 0u);
  const std::uint64_t final_tick = engine.current_tick();
  EXPECT_FALSE(engine.step()) << "no-op after completion";
  EXPECT_EQ(engine.current_tick(), final_tick);
}

TEST(Engine, SnapshotsAtRequestedTicks) {
  Engine engine(tiny(), 5);
  engine.request_snapshots({0, 5, 35});
  const RunResult r = engine.run();
  ASSERT_EQ(r.snapshots.size(), 3u);
  EXPECT_EQ(r.snapshots[0].tick, 0u);
  EXPECT_EQ(r.snapshots[1].tick, 5u);
  EXPECT_EQ(r.snapshots[2].tick, 35u);
  EXPECT_EQ(r.snapshots[0].remaining_tasks, 5000u);
  EXPECT_LT(r.snapshots[1].remaining_tasks, 5000u);
  EXPECT_EQ(r.snapshots[0].workloads.size(), 50u);
}

TEST(Engine, SnapshotZeroMatchesInitialAssignment) {
  Engine engine(tiny(), 6);
  engine.request_snapshots({0});
  const auto direct = engine.world().alive_workloads();
  const RunResult r = engine.run();
  ASSERT_EQ(r.snapshots.size(), 1u);
  EXPECT_EQ(r.snapshots[0].workloads, direct);
}

TEST(Engine, SnapshotTicksPastRuntimeAreSkipped) {
  Engine engine(tiny(10, 20), 7);
  engine.request_snapshots({0, 1'000'000});
  const RunResult r = engine.run();
  EXPECT_EQ(r.snapshots.size(), 1u);
}

TEST(EngineDeathTest, RequestSnapshotsAfterAStepFails) {
  // A late request would label the current state "tick 0"; a second
  // request for tick 0 would capture it twice.
  Engine stepped(tiny(), 5);
  ASSERT_TRUE(stepped.step());
  EXPECT_DEATH(stepped.request_snapshots({0}),
               "request_snapshots after the first step or a tick-0 "
               "snapshot \\(tick 1, 0 snapshots");
  Engine twice(tiny(), 5);
  twice.request_snapshots({0});
  EXPECT_DEATH(twice.request_snapshots({0}),
               "request_snapshots after the first step or a tick-0 "
               "snapshot \\(tick 0, 1 snapshots");
}

TEST(Engine, ChurnConservesTasks) {
  Params p = tiny(100, 10'000);
  p.churn_rate = 0.05;  // aggressive churn
  Engine engine(p, 8);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(engine.world().remaining_tasks(), 0u);
  EXPECT_GT(r.leaves, 0u);
  EXPECT_GT(r.joins, 0u);
  EXPECT_TRUE(testing::AuditClean(engine.world()));
}

// The engine keeps no Params copy: a churn rate set on the world mid-run
// drives the very next tick's draws (the scenario `set churn` path).
TEST(Engine, ChurnRateSetOnTheWorldDrivesTheNextTick) {
  Params p = tiny(100, 10'000);
  p.churn_rate = 0.0;
  Engine engine(p, 3);
  ASSERT_TRUE(engine.step());
  engine.world().set_churn_rate(1.0);
  ASSERT_TRUE(engine.step());
  engine.world().set_churn_rate(0.0);
  const RunResult r = engine.run();
  // At rate 1 every alive node but the last leaves; then the whole pool
  // (100 waiting + 99 leavers) joins.  No other tick churns.
  EXPECT_EQ(r.leaves, 99u);
  EXPECT_EQ(r.joins, 199u);
}

TEST(Engine, ChurnSpeedsUpTheBaseline) {
  // The paper's central churn claim (Table II): nonzero churn lowers the
  // runtime factor.  Compare means over a few seeds to damp variance.
  double base_sum = 0.0, churn_sum = 0.0;
  constexpr int kTrials = 5;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    Engine base(tiny(100, 50'000), seed);
    base_sum += base.run().runtime_factor;
    Params p = tiny(100, 50'000);
    p.churn_rate = 0.01;
    Engine churned(p, seed);
    churn_sum += churned.run().runtime_factor;
  }
  EXPECT_LT(churn_sum, base_sum);
}

TEST(Engine, WorkPerTickSeriesSumsToTotalTasks) {
  Engine engine(tiny(), 9);
  engine.record_tick_series(true);
  const RunResult r = engine.run();
  EXPECT_EQ(r.work_per_tick.size(), r.ticks);
  const std::uint64_t sum = std::accumulate(
      r.work_per_tick.begin(), r.work_per_tick.end(), std::uint64_t{0});
  EXPECT_EQ(sum, 5000u);
}

TEST(Engine, SeriesOffByDefault) {
  Engine engine(tiny(10, 50), 10);
  EXPECT_TRUE(engine.run().work_per_tick.empty());
}

TEST(Engine, AvgWorkPerTickMatchesDefinition) {
  Engine engine(tiny(), 11);
  const RunResult r = engine.run();
  EXPECT_NEAR(r.avg_work_per_tick,
              5000.0 / static_cast<double>(r.ticks), 1e-9);
}

TEST(Engine, SafetyCapTripsAndReportsIncomplete) {
  Params p = tiny(10, 10'000);
  p.max_ticks = 5;
  Engine engine(p, 12);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.ticks, 5u);
  EXPECT_GT(engine.world().remaining_tasks(), 0u);
}

TEST(Engine, HeterogeneousStrengthRunCompletes) {
  Params p = tiny(100, 10'000);
  p.heterogeneous = true;
  p.work_measure = WorkMeasure::kStrengthPerTick;
  Engine engine(p, 13, lb::make_strategy("random-injection"));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.completed);
  // Ideal accounts for total strength: ticks < tasks/nodes must be
  // possible since capacity > nodes.
  EXPECT_LT(r.ideal_ticks, 100u);
}

TEST(Engine, StrategyDecisionRunsOnPeriod) {
  // With decision_period = 5 and a 35-tick horizon, random injection
  // must have acted by tick 5 but not before.
  Params p = tiny(100, 50'000);  // plenty of work: nobody idles early
  p.sybil_threshold = 1'000'000;  // everyone always under threshold
  Engine engine(p, 14, lb::make_strategy("random-injection"));
  for (int t = 0; t < 4; ++t) {
    engine.step();
    EXPECT_EQ(engine.world().vnode_count(), 100u) << "no Sybils before t=5";
  }
  engine.step();  // tick 5
  EXPECT_GT(engine.world().vnode_count(), 100u) << "Sybils appear at t=5";
}

TEST(Engine, ChurnKeepsNetworkSizeMeanReverting) {
  // §IV-A: the alive population and the waiting pool start equal and
  // exchange members at the same rate, so neither "fluctuates wildly".
  Params p = tiny(100, 100'000);  // long run: plenty of churn epochs
  p.churn_rate = 0.02;
  Engine engine(p, 21);
  std::size_t min_alive = 100, max_alive = 100;
  while (engine.step()) {
    min_alive = std::min(min_alive, engine.world().alive_count());
    max_alive = std::max(max_alive, engine.world().alive_count());
  }
  // Alive count is a symmetric random walk constrained by the pool;
  // excursions beyond +-60% of N would indicate a rate asymmetry bug.
  EXPECT_GT(min_alive, 40u);
  EXPECT_LT(max_alive, 160u);
}

TEST(Engine, ChurnPopulationIsConserved) {
  Params p = tiny(50, 20'000);
  p.churn_rate = 0.05;
  Engine engine(p, 22);
  for (int i = 0; i < 200 && engine.step(); ++i) {
    EXPECT_EQ(engine.world().alive_count() + engine.world().waiting_count(),
              100u)
        << "alive + waiting must always equal the total population";
  }
}

TEST(Engine, NullStrategyNeverCreatesSybils) {
  Engine engine(tiny(), 15, nullptr);
  const RunResult r = engine.run();
  EXPECT_EQ(r.strategy_counters.sybils_created, 0u);
  EXPECT_EQ(engine.world().vnode_count(), 50u);
}

}  // namespace
}  // namespace dhtlb::sim
