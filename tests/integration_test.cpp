// Cross-module integration tests: full simulations exercising the engine,
// world, strategies and experiment harness together, asserting the
// paper's qualitative results (the "shape" EXPERIMENTS.md reports on).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "chord/network.hpp"
#include "chord/sybil_placement.hpp"
#include "exp/experiment.hpp"
#include "hashing/sha1.hpp"
#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/world_testing.hpp"
#include "stats/load_metrics.hpp"
#include "support/rng.hpp"

namespace dhtlb {
namespace {

sim::Params config(std::size_t nodes, std::uint64_t tasks) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

TEST(Integration, TaskConservationUnderEveryStrategy) {
  for (const auto name : lb::strategy_names()) {
    sim::Params p = config(100, 5000);
    if (name == "churn") p.churn_rate = 0.02;
    sim::Engine engine(p, 3, lb::make_strategy(name));
    const sim::RunResult r = engine.run();
    EXPECT_TRUE(r.completed) << name;
    EXPECT_EQ(engine.world().remaining_tasks(), 0u) << name;
    EXPECT_TRUE(sim::testing::AuditClean(engine.world())) << name;
  }
}

TEST(Integration, ChurnTableShape) {
  // Table II columns, shrunk: increasing churn monotonically (on
  // average) lowers the runtime factor, and more tasks amplify the gain.
  auto mean_factor = [](std::size_t nodes, std::uint64_t tasks, double rate) {
    double sum = 0.0;
    constexpr int kTrials = 4;
    for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
      sim::Params p = config(nodes, tasks);
      p.churn_rate = rate;
      sum += sim::Engine(p, seed).run().runtime_factor;
    }
    return sum / kTrials;
  };
  const double none = mean_factor(100, 10'000, 0.0);
  const double low = mean_factor(100, 10'000, 0.001);
  const double high = mean_factor(100, 10'000, 0.01);
  EXPECT_LT(high, low);
  EXPECT_LT(low, none);

  // More tasks per node => churn gains more (paper: "the gains from
  // churn are most strongly related [to] the number of tasks").
  const double small_gain = none - high;
  const double big_none = mean_factor(100, 100'000, 0.0);
  const double big_high = mean_factor(100, 100'000, 0.01);
  EXPECT_GT((big_none - big_high) / big_none, small_gain / none * 0.8)
      << "relative improvement should not shrink with more tasks";
}

TEST(Integration, RandomInjectionImprovesBalanceAtTick35) {
  // Figures 7-8: at tick 35, the random-injection network has fewer idle
  // nodes and a fairer distribution than no strategy.
  const auto none = exp::run_with_snapshots(config(500, 50'000), "none",
                                            7, {35});
  const auto inj = exp::run_with_snapshots(config(500, 50'000),
                                           "random-injection", 7, {35});
  ASSERT_EQ(none.snapshots.size(), 1u);
  ASSERT_EQ(inj.snapshots.size(), 1u);
  const auto& ln = none.snapshots[0].workloads;
  const auto& li = inj.snapshots[0].workloads;
  EXPECT_LT(stats::idle_fraction(li), stats::idle_fraction(ln));
  EXPECT_LT(stats::gini(li), stats::gini(ln));
}

TEST(Integration, NeighborInjectionShiftsTheHistogramLeft) {
  // Figure 11: neighbor injection lowers the maximum workload even while
  // leaving more idle nodes than random injection.
  const auto none = exp::run_with_snapshots(config(500, 50'000), "none",
                                            9, {35});
  const auto nbr = exp::run_with_snapshots(config(500, 50'000),
                                           "neighbor-injection", 9, {35});
  const auto& ln = none.snapshots[0].workloads;
  const auto& lb_ = nbr.snapshots[0].workloads;
  EXPECT_LT(*std::max_element(lb_.begin(), lb_.end()),
            *std::max_element(ln.begin(), ln.end()));
}

TEST(Integration, HeterogeneousNetworksStillBalance) {
  // Figure 10: random injection improves the het distribution too.
  sim::Params p = config(300, 30'000);
  p.heterogeneous = true;
  const auto none = exp::run_with_snapshots(p, "none", 11, {35});
  const auto inj = exp::run_with_snapshots(p, "random-injection", 11, {35});
  EXPECT_LT(stats::gini(inj.snapshots[0].workloads),
            stats::gini(none.snapshots[0].workloads));
}

TEST(Integration, SybilStrategiesBeatChurnOnFinalRuntime) {
  // Figure 9's message: targeted Sybil creation outperforms blind churn.
  double churn = 0.0, inj = 0.0;
  constexpr int kTrials = 3;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    sim::Params pc = config(300, 30'000);
    pc.churn_rate = 0.01;
    churn += sim::Engine(pc, seed).run().runtime_factor;
    inj += sim::Engine(config(300, 30'000), seed,
                       lb::make_strategy("random-injection"))
               .run()
               .runtime_factor;
  }
  EXPECT_LT(inj, churn);
}

TEST(Integration, EqualTaskNodeRatioGivesSimilarFactors) {
  // §VI-B: networks with the same tasks-per-node ratio have similar
  // runtime factors (the smaller slightly faster).
  double small = 0.0, large = 0.0;
  constexpr int kTrials = 4;
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    small += sim::Engine(config(100, 10'000), seed,
                         lb::make_strategy("random-injection"))
                 .run()
                 .runtime_factor;
    large += sim::Engine(config(500, 50'000), seed,
                         lb::make_strategy("random-injection"))
                 .run()
                 .runtime_factor;
  }
  EXPECT_NEAR(small / kTrials, large / kTrials, 0.5);
}

TEST(Integration, ChordSubstrateValidatesSimAssumptions) {
  // The tick simulator assumes joins/Sybil placements are cheap and the
  // ring stays consistent; check both on the protocol substrate.
  chord::Network net(5);
  support::Rng rng(13);
  std::vector<chord::NodeId> initial(40);
  for (chord::NodeId& id : initial) id = hashing::Sha1::hash_u64(rng());
  net.bootstrap(initial, 4);
  ASSERT_TRUE(net.ring_consistent());

  // Sybil placement into a specific gap via hash search, then join there.
  const auto ids = net.node_ids();
  const auto placement = chord::place_by_hash_search(ids[0], ids[1], rng);
  ASSERT_TRUE(placement.has_value());
  EXPECT_TRUE(net.join(placement->id, initial[0]));
  net.stabilize(4);
  EXPECT_TRUE(net.ring_consistent());
  EXPECT_EQ(net.true_owner(placement->id), placement->id);
}

TEST(Integration, WorkPerTickRampsUpUnderInjection) {
  // §VI-A's mechanism: balancing keeps more nodes busy, so work per tick
  // stays higher for longer.  Compare the tail (tick > ideal) totals.
  sim::Engine base(config(300, 30'000), 17);
  base.record_tick_series(true);
  sim::Engine inj(config(300, 30'000), 17,
                  lb::make_strategy("random-injection"));
  inj.record_tick_series(true);
  const auto rb = base.run();
  const auto ri = inj.run();
  const std::uint64_t ideal = rb.ideal_ticks;
  auto tail_mean = [&](const std::vector<std::uint64_t>& series) {
    if (series.size() <= ideal) return 0.0;
    double sum = 0.0;
    for (std::size_t t = static_cast<std::size_t>(ideal);
         t < series.size(); ++t) {
      sum += static_cast<double>(series[t]);
    }
    return sum / static_cast<double>(series.size() - ideal);
  };
  EXPECT_GT(tail_mean(ri.work_per_tick) + 1.0, tail_mean(rb.work_per_tick))
      << "injection keeps per-tick throughput at least comparable";
  EXPECT_LT(ri.ticks, rb.ticks);
}

}  // namespace
}  // namespace dhtlb
