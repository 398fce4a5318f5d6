// Behavioral tests for the four balancing strategies (§IV), driven
// through the engine so decision cadence and consumption interleave as
// in the real simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "lb/factory.hpp"
#include "lb/rules.hpp"
#include "sim/engine.hpp"
#include "sim/world_testing.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::lb {
namespace {

using sim::Engine;
using sim::Params;
using sim::RunResult;
using sim::World;
using sim::testing::consume;
using support::Rng;

Params tiny(std::size_t nodes = 100, std::uint64_t tasks = 10'000) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

// --- factory -------------------------------------------------------------

TEST(Factory, KnownNamesConstruct) {
  EXPECT_EQ(make_strategy("none"), nullptr);
  EXPECT_EQ(make_strategy("churn"), nullptr);
  EXPECT_EQ(make_strategy("random-injection")->name(), "random-injection");
  EXPECT_EQ(make_strategy("neighbor-injection")->name(),
            "neighbor-injection");
  EXPECT_EQ(make_strategy("smart-neighbor-injection")->name(),
            "smart-neighbor-injection");
  EXPECT_EQ(make_strategy("invitation")->name(), "invitation");
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_strategy("nonsense"), std::invalid_argument);
}

TEST(Factory, NamesListCoversAllConstructible) {
  for (const auto name : strategy_names()) {
    EXPECT_NO_THROW(make_strategy(name)) << name;
  }
  EXPECT_EQ(strategy_names().size(), 6u);
}

// --- shared helpers ------------------------------------------------------

TEST(Common, RetireIdleSybilsOnlyWhenIdle) {
  Rng rng(1);
  Params p = tiny(10, 1000);
  World w(p, rng);
  sim::StrategyCounters c;
  const sim::NodeIndex idx = w.alive_indices()[0];
  (void)w.create_sybil(idx, support::Uint160{7});
  // Node still has work: nothing retires.
  ASSERT_GT(w.workload(idx), 0u);
  EXPECT_EQ(retire_idle_sybils(w, idx, c), 0u);
  EXPECT_EQ(w.sybil_count(idx), 1u);
  // Drain it: sybils retire.
  (void)consume(w, idx, w.workload(idx), rng);
  EXPECT_EQ(retire_idle_sybils(w, idx, c), 1u);
  EXPECT_EQ(w.sybil_count(idx), 0u);
  EXPECT_EQ(c.sybils_retired, 1u);
}

TEST(Common, MayCreateSybilChecksThresholdAndCap) {
  Rng rng(2);
  Params p = tiny(10, 1000);
  p.sybil_threshold = 1'000'000;  // threshold never binds
  p.max_sybils = 2;
  World w(p, rng);
  const sim::NodeIndex idx = w.alive_indices()[0];
  EXPECT_TRUE(may_create_sybil(w, idx));
  (void)w.create_sybil(idx, support::Uint160{11});
  (void)w.create_sybil(idx, support::Uint160{22});
  EXPECT_FALSE(may_create_sybil(w, idx)) << "cap of 2 reached";
}

TEST(Common, ThresholdBinds) {
  Rng rng(3);
  Params p = tiny(10, 10'000);
  p.sybil_threshold = 0;
  World w(p, rng);
  // Every node got ~1000 tasks; nobody is at/below threshold 0.
  for (const auto idx : w.alive_indices()) {
    if (w.workload(idx) > 0) {
      EXPECT_FALSE(may_create_sybil(w, idx));
    }
  }
}

TEST(Common, ShuffledAliveIsAPermutation) {
  Rng rng(4);
  Params p = tiny(50, 100);
  World w(p, rng);
  Rng shuffle_rng(5);
  std::vector<sim::NodeIndex> order;
  shuffled_alive_into(w, shuffle_rng, order);
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  auto expected = w.alive_indices();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
}

// --- random injection ----------------------------------------------------

TEST(RandomInjectionTest, CreatesSybilsOnlyForEligibleNodes) {
  Rng rng(6);
  Params p = tiny(20, 2000);
  World w(p, rng);
  // Drain three nodes to make them eligible (threshold 0).
  std::vector<sim::NodeIndex> drained;
  for (int i = 0; i < 3; ++i) {
    const sim::NodeIndex idx = w.alive_indices()[static_cast<std::size_t>(i)];
    (void)consume(w, idx, w.workload(idx), rng);
    drained.push_back(idx);
  }
  const auto strat = make_strategy("random-injection");
  sim::StrategyCounters c;
  Rng decision_rng(7);
  strat->decide(w, decision_rng, c);
  EXPECT_EQ(c.sybils_created, 3u) << "exactly the drained nodes act";
  for (const auto idx : drained) {
    EXPECT_EQ(w.sybil_count(idx), 1u) << "one Sybil per decision round";
  }
}

TEST(RandomInjectionTest, RespectsSybilCapAcrossRounds) {
  Rng rng(8);
  Params p = tiny(20, 2000);
  p.max_sybils = 3;
  World w(p, rng);
  const sim::NodeIndex idx = w.alive_indices()[0];
  (void)consume(w, idx, w.workload(idx), rng);
  const auto strat = make_strategy("random-injection");
  sim::StrategyCounters c;
  Rng decision_rng(9);
  for (int round = 0; round < 10; ++round) {
    // Keep the node idle so it stays eligible but also keeps retiring...
    // drain whatever its Sybils grabbed first.
    (void)consume(w, idx, w.workload(idx), rng);
    strat->decide(w, decision_rng, c);
    EXPECT_LE(w.sybil_count(idx), 3u);
  }
}

TEST(RandomInjectionTest, ImprovesRuntimeOverBaseline) {
  double base = 0.0, injected = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    base += Engine(tiny(), seed).run().runtime_factor;
    injected += Engine(tiny(), seed, make_strategy("random-injection"))
                    .run()
                    .runtime_factor;
  }
  EXPECT_LT(injected, base);
}

TEST(RandomInjectionTest, HeterogeneousCapIsStrength) {
  Rng rng(10);
  Params p = tiny(50, 500);
  p.heterogeneous = true;
  p.max_sybils = 5;
  World w(p, rng);
  // Find a strength-1 node, drain it, run many rounds: at most 1 Sybil.
  sim::NodeIndex weak = 0;
  bool found = false;
  for (const auto idx : w.alive_indices()) {
    if (w.physical(idx).strength == 1) {
      weak = idx;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const auto strat = make_strategy("random-injection");
  sim::StrategyCounters c;
  Rng decision_rng(11);
  for (int round = 0; round < 5; ++round) {
    (void)consume(w, weak, w.workload(weak), rng);
    strat->decide(w, decision_rng, c);
    EXPECT_LE(w.sybil_count(weak), 1u);
  }
}

// --- neighbor injection ---------------------------------------------------

TEST(NeighborInjectionTest, SybilLandsWithinSuccessorNeighborhood) {
  Rng rng(12);
  Params p = tiny(30, 3000);
  p.num_successors = 5;
  World w(p, rng);
  const sim::NodeIndex idx = w.alive_indices()[0];
  (void)consume(w, idx, w.workload(idx), rng);
  const sim::Slot self_slot = w.primary_slot(idx);
  const support::Uint160 self = w.vnode_id(self_slot);
  // Record the neighborhood's far end BEFORE the injection.
  support::Uint160 last_succ;
  for (const sim::ArcView& arc :
       w.successor_arcs(self_slot, p.num_successors)) {
    last_succ = arc.id;
  }

  const auto strat = make_strategy("neighbor-injection");
  sim::StrategyCounters c;
  Rng decision_rng(13);
  strat->decide(w, decision_rng, c);
  ASSERT_EQ(c.sybils_created, 1u);
  const support::Uint160 sybil = w.vnode_id(w.physical(idx).vnode_slots.back());
  // The Sybil must lie inside the arc (self, last-successor].
  EXPECT_TRUE(
      support::in_half_open_arc(sybil, self, last_succ))
      << "placement restricted to the successor list's span";
}

TEST(NeighborInjectionTest, SmartModePicksMostLoadedSuccessor) {
  // Drain one node, identify the most-loaded successor in its list, and
  // verify the smart variant takes keys from exactly that arc.
  Rng rng2(15);
  Params p2 = tiny(10, 5000);
  World w2(p2, rng2);
  const sim::NodeIndex idx = w2.alive_indices()[0];
  (void)consume(w2, idx, w2.workload(idx), rng2);
  std::uint64_t best = 0;
  sim::Slot target = sim::FlatRing::kNoSlot;
  for (const sim::ArcView& arc :
       w2.successor_arcs(w2.primary_slot(idx), p2.num_successors)) {
    if (arc.owner != idx && arc.task_count > best) {
      best = arc.task_count;
      target = arc.slot;
    }
  }
  ASSERT_GT(best, 0u);
  const std::uint64_t before = w2.arc_of(target).task_count;

  const auto strat = make_strategy("smart-neighbor-injection");
  sim::StrategyCounters c;
  Rng decision_rng(16);
  strat->decide(w2, decision_rng, c);
  EXPECT_EQ(c.sybils_created, 1u);
  EXPECT_GT(c.workload_queries, 0u) << "smart mode pays probe messages";
  EXPECT_LT(w2.arc_of(target).task_count, before)
      << "the most-loaded successor lost keys to the Sybil";
  // Midpoint split takes roughly half; allow wide tolerance.
  EXPECT_GT(w2.workload(idx), before / 5);
}

TEST(NeighborInjectionTest, EstimateModeSendsNoQueries) {
  Rng rng(17);
  Params p = tiny(30, 3000);
  World w(p, rng);
  const sim::NodeIndex idx = w.alive_indices()[0];
  (void)consume(w, idx, w.workload(idx), rng);
  const auto strat = make_strategy("neighbor-injection");
  sim::StrategyCounters c;
  Rng decision_rng(18);
  strat->decide(w, decision_rng, c);
  EXPECT_EQ(c.workload_queries, 0u);
}

TEST(NeighborInjectionTest, MarkFailedRangesStopsRepeatPlacements) {
  Rng rng(19);
  Params p = tiny(30, 30);  // ~1 task per node: placements mostly fail
  p.mark_failed_ranges = true;
  p.max_sybils = 10;
  World w(p, rng);
  // Drain the whole network so every placement acquires nothing.
  for (const auto idx : w.alive_indices()) {
    (void)consume(w, idx, w.workload(idx), rng);
  }
  const auto strat = make_strategy("neighbor-injection");
  sim::StrategyCounters c;
  Rng decision_rng(20);
  for (int round = 0; round < 8; ++round) strat->decide(w, decision_rng, c);
  EXPECT_GT(c.ranges_marked_invalid, 0u);
  // Marking must strictly reduce re-spamming: with 30 nodes x 5
  // successor arcs there are at most ~5 distinct marks per node, so
  // failed placements cannot exceed marks by much.
  EXPECT_LE(c.failed_placements,
            c.ranges_marked_invalid + 30u * 8u) << "sanity bound";
}

TEST(NeighborInjectionTest, SmartBeatsEstimateOnAverage) {
  double estimate = 0.0, smart = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    estimate += Engine(tiny(200, 20'000), seed,
                       make_strategy("neighbor-injection"))
                    .run()
                    .runtime_factor;
    smart += Engine(tiny(200, 20'000), seed,
                    make_strategy("smart-neighbor-injection"))
                 .run()
                 .runtime_factor;
  }
  EXPECT_LT(smart, estimate) << "paper §VI-C: probing beats estimating";
}

// --- invitation -----------------------------------------------------------

TEST(InvitationTest, IdlePredecessorHelpsOverburdenedNode) {
  Rng rng(21);
  Params p = tiny(20, 4000);
  World w(p, rng);
  // Drain ALL nodes except one heavy node; its predecessors become
  // eligible helpers.
  const sim::NodeIndex heavy = w.alive_indices()[0];
  for (const auto idx : w.alive_indices()) {
    if (idx != heavy) (void)consume(w, idx, w.workload(idx), rng);
  }
  ASSERT_GT(w.workload(heavy), 0u);
  const std::uint64_t heavy_before = w.workload(heavy);

  const auto strat = make_strategy("invitation");
  sim::StrategyCounters c;
  Rng decision_rng(22);
  strat->decide(w, decision_rng, c);
  EXPECT_GT(c.invitations_sent, 0u);
  // At least the heavy node's invitation is accepted; helpers that
  // acquired work may themselves recruit later in the same round
  // (sequential decision order), so more acceptances are legal.
  EXPECT_GE(c.invitations_accepted, 1u);
  EXPECT_LT(w.workload(heavy), heavy_before)
      << "the heavy node lost roughly half its keys";
}

TEST(InvitationTest, RefusedWhenNoPredecessorIsIdle) {
  Rng rng(23);
  Params p = tiny(20, 20'000);  // everyone starts loaded
  World w(p, rng);
  const auto strat = make_strategy("invitation");
  sim::StrategyCounters c;
  Rng decision_rng(24);
  strat->decide(w, decision_rng, c);
  EXPECT_GT(c.invitations_sent, 0u);
  EXPECT_EQ(c.invitations_accepted, 0u)
      << "no node is at the threshold; every invitation is refused";
  EXPECT_EQ(c.sybils_created, 0u);
}

TEST(InvitationTest, RefusedWhenHelpersAreAtSybilCap) {
  Rng rng(25);
  Params p = tiny(10, 2000);
  p.max_sybils = 1;
  p.sybil_threshold = 50;  // helpers: load <= 50; announcers: load > 50
  World w(p, rng);
  // Pick the heaviest node as the announcer (it will stay above the
  // threshold); every other node becomes a capped, lightly-loaded
  // would-be helper.
  sim::NodeIndex heavy = w.alive_indices()[0];
  for (const auto idx : w.alive_indices()) {
    if (w.workload(idx) > w.workload(heavy)) heavy = idx;
  }
  ASSERT_GT(w.workload(heavy), 50u);
  for (const auto idx : w.alive_indices()) {
    if (idx == heavy) continue;
    // One manual Sybil exhausts the cap of 1...
    (void)w.create_sybil(idx, rng.uniform_u160());
    // ...then drain to a small nonzero load: eligible (<= threshold)
    // but not idle, so retire_idle_sybils leaves the cap exhausted.
    if (w.workload(idx) > 10) {
      (void)consume(w, idx, w.workload(idx) - 10, rng);
    }
  }
  const auto strat = make_strategy("invitation");
  sim::StrategyCounters c;
  Rng decision_rng(26);
  strat->decide(w, decision_rng, c);
  EXPECT_GT(c.invitations_sent, 0u);
  EXPECT_EQ(c.invitations_accepted, 0u)
      << "every candidate helper is at its Sybil cap";
}

/// The helper the invitation rule picks for `idx`, written in the plain
/// ArcWalk form: arc_of the busiest vnode, a second search for its
/// predecessor walk, and each predecessor judged as the walk reaches
/// it.  nullopt when no invitation goes out or nobody accepts.
std::optional<sim::NodeIndex> walk_form_helper(const World& w,
                                               sim::NodeIndex idx) {
  const std::uint64_t threshold = w.params().sybil_threshold;
  if (w.workload(idx) <= threshold) return std::nullopt;
  const sim::ArcView heavy = w.arc_of(w.busiest_vnode(idx));
  if (support::clockwise_distance(heavy.pred, heavy.id) <=
      support::Uint160{1}) {
    return std::nullopt;
  }
  std::optional<sim::NodeIndex> helper;
  std::uint64_t helper_load = 0;
  for (const sim::ArcView& parc :
       w.predecessor_arcs(heavy.slot, w.params().num_successors)) {
    if (parc.owner == idx) continue;
    const std::uint64_t load = w.workload(parc.owner);
    if (load > threshold) continue;
    if (w.sybil_count(parc.owner) >= w.sybil_cap(parc.owner)) continue;
    if (!helper || load < helper_load) {
      helper = parc.owner;
      helper_load = load;
    }
  }
  return helper;
}

TEST(InvitationTest, TinyRingsPickTheWalkFormHelper) {
  // Rings of 2..5 physical nodes (n - 1 below num_successors = 8, so
  // every predecessor walk wraps short), where the announcer owns some
  // of its own predecessors (Sybils just counterclockwise of its arcs).
  // For every announcer the rule must place exactly the Sybil the walk
  // form above predicts: same helper, at the heavy arc's midpoint.
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    Params p = tiny(2 + seed % 4, 60);
    p.num_successors = 8;
    p.max_sybils = 3;
    p.sybil_threshold = seed % 3;
    World base(p, rng);
    // Self-owned predecessors: each node drops a Sybil just before its
    // own primary, inside its own arc.
    for (const sim::NodeIndex idx : base.alive_indices()) {
      const sim::ArcView arc = base.arc_of(base.primary_slot(idx));
      if (support::clockwise_distance(arc.pred, arc.id) > support::Uint160{2}) {
        (void)base.create_sybil(idx, arc.id - support::Uint160{1});
      }
    }
    // Drain every other node so some helpers qualify.
    for (std::size_t i = 0; i < base.alive_indices().size(); i += 2) {
      const sim::NodeIndex idx = base.alive_indices()[i];
      (void)consume(base, idx, base.workload(idx), rng);
    }
    for (const sim::NodeIndex announcer : base.alive_indices()) {
      World w = base;
      const std::optional<sim::NodeIndex> expected =
          walk_form_helper(w, announcer);
      std::optional<support::Uint160> midpoint;
      if (expected) {
        const sim::ArcView heavy = w.arc_of(w.busiest_vnode(announcer));
        midpoint = support::arc_midpoint(heavy.pred, heavy.id);
      }
      const std::size_t vnodes = w.vnode_count();
      const std::size_t helper_sybils =
          expected ? w.sybil_count(*expected) : 0;
      sim::StrategyCounters counters;
      FailedRanges failed;
      NodeTurn turn{w, rng, counters, failed, announcer};
      invitation(turn, 0);
      if (!expected) {
        EXPECT_EQ(w.vnode_count(), vnodes) << "seed " << seed;
        EXPECT_EQ(counters.invitations_accepted, 0u) << "seed " << seed;
        ++refused;
        continue;
      }
      ++accepted;
      EXPECT_EQ(counters.invitations_accepted, 1u) << "seed " << seed;
      EXPECT_EQ(w.vnode_count(), vnodes + 1) << "seed " << seed;
      EXPECT_EQ(w.sybil_count(*expected), helper_sybils + 1)
          << "seed " << seed;
      const sim::ArcView placed = w.arc_covering(*midpoint);
      ASSERT_EQ(placed.id, *midpoint) << "seed " << seed;
      EXPECT_EQ(placed.owner, *expected) << "seed " << seed;
    }
  }
  // Both outcomes occur, so the comparison is not vacuous.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(InvitationTest, ImprovesRuntimeOverBaseline) {
  double base = 0.0, invited = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    base += Engine(tiny(), seed).run().runtime_factor;
    invited += Engine(tiny(), seed, make_strategy("invitation"))
                   .run()
                   .runtime_factor;
  }
  EXPECT_LT(invited, base);
}

// --- cross-strategy shape (the paper's headline ordering) ----------------

TEST(StrategyOrdering, RandomInjectionIsBestOnDefaults) {
  // §VI: "Our best strategy was random injection."  Compare means over a
  // few seeds on a scaled-down default network.
  const Params p = tiny(200, 20'000);
  auto mean_factor = [&](const char* name, double churn) {
    double sum = 0.0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Params cfg = p;
      cfg.churn_rate = churn;
      sum += Engine(cfg, seed, make_strategy(name)).run().runtime_factor;
    }
    return sum / 4.0;
  };
  const double none = mean_factor("none", 0.0);
  const double churn = mean_factor("churn", 0.01);
  const double random_inj = mean_factor("random-injection", 0.0);
  const double neighbor = mean_factor("neighbor-injection", 0.0);
  EXPECT_LT(random_inj, churn);
  EXPECT_LT(random_inj, neighbor);
  EXPECT_LT(churn, none);
  EXPECT_LT(neighbor, none);
  EXPECT_LT(random_inj, 2.0) << "approaches the ideal, §VI-B";
}

}  // namespace
}  // namespace dhtlb::lb
