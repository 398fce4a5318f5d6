// Item-balance (neighbor-move) family: factory wiring, the move_vnode /
// nth_task_key world primitives it builds on, the constant-factor
// imbalance band on static networks, audited churn runs, and the
// 7-seed cross-thread determinism differential.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "sim/world.hpp"
#include "sim/world_testing.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb {
namespace {

using sim::ArcView;
using sim::World;
using sim::testing::AuditClean;
using support::Uint160;

sim::Params small_world(std::size_t nodes, std::uint64_t tasks) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

TEST(ItemBalance, FactoryWiring) {
  const auto aggressive = lb::make_strategy("item-balance");
  ASSERT_NE(aggressive, nullptr);
  EXPECT_EQ(aggressive->name(), "item-balance");
  const auto conservative = lb::make_strategy("item-balance-conservative");
  ASSERT_NE(conservative, nullptr);
  EXPECT_EQ(conservative->name(), "item-balance-conservative");

  const auto extensions = lb::extension_strategy_names();
  EXPECT_NE(std::find(extensions.begin(), extensions.end(), "item-balance"),
            extensions.end());
  EXPECT_NE(std::find(extensions.begin(), extensions.end(),
                      "item-balance-conservative"),
            extensions.end());
}

TEST(ItemBalance, NthTaskKeyMatchesArcOrder) {
  support::Rng rng(42);
  World world(small_world(16, 2000), rng);
  // Find a vnode holding a healthy number of keys.
  std::optional<ArcView> target;
  world.for_each_arc([&](const ArcView& arc) {
    if (!target && arc.task_count >= 8) target = arc;
  });
  ASSERT_TRUE(target.has_value());

  // Reference order: keys sorted by clockwise distance from the arc
  // start, exactly the order nth_task_key promises to select from.
  std::vector<Uint160> offsets;
  for (const Uint160& key : world.vnode_keys(target->slot)) {
    offsets.push_back(support::clockwise_distance(target->pred, key));
  }
  std::sort(offsets.begin(), offsets.end());
  for (std::uint64_t n = 0; n < offsets.size(); ++n) {
    const auto key = world.nth_task_key(*target, n);
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(*key, target->pred + offsets[n]) << "n = " << n;
  }
  EXPECT_FALSE(world.nth_task_key(*target, offsets.size()).has_value());
}

TEST(ItemBalance, MoveVnodeShedsAndAcquires) {
  support::Rng rng(7);
  World world(small_world(16, 4000), rng);
  std::optional<ArcView> target;
  world.for_each_arc([&](const ArcView& arc) {
    if (!target && arc.task_count >= 6) target = arc;
  });
  ASSERT_TRUE(target.has_value());
  const std::uint64_t before = target->task_count;
  const std::uint64_t total = world.total_tasks();

  // Shed: retreat the boundary so exactly 2 keys stay with the owner;
  // the other before-2 keys fall to the ring successor.
  const auto split = world.nth_task_key(*target, 1);
  ASSERT_TRUE(split.has_value());
  ASSERT_NE(*split, target->id);
  const auto moved = world.move_vnode(target->slot, *split);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, before - 2);
  const ArcView shed = world.arc_covering(*split);
  ASSERT_EQ(shed.id, *split);
  EXPECT_EQ(shed.task_count, 2u);
  EXPECT_EQ(shed.owner, target->owner);
  EXPECT_NE(world.arc_covering(target->id).id, target->id);
  EXPECT_EQ(world.total_tasks(), total);  // moves never create/destroy work
  EXPECT_TRUE(AuditClean(world));
  EXPECT_TRUE(world.alive_index_consistent());

  // Acquire: advance the same vnode's boundary into its successor's arc
  // and pull that arc's first key over.
  std::optional<ArcView> succ;
  for (const ArcView& arc : world.successor_arcs(shed.slot, 1)) succ = arc;
  ASSERT_TRUE(succ.has_value());
  if (succ->task_count >= 2 && succ->owner != shed.owner) {
    const auto ahead = world.nth_task_key(*succ, 0);
    ASSERT_TRUE(ahead.has_value());
    if (*ahead != succ->id && world.arc_covering(*ahead).id != *ahead) {
      const auto acquired = world.move_vnode(shed.slot, *ahead);
      ASSERT_TRUE(acquired.has_value());
      EXPECT_EQ(*acquired, 1u);
      const ArcView grown = world.arc_covering(*ahead);
      EXPECT_EQ(grown.id, *ahead);
      EXPECT_EQ(grown.task_count, 3u);
      EXPECT_TRUE(AuditClean(world));
    }
  }
}

TEST(ItemBalance, MoveVnodeRejectsIllegalTargets) {
  support::Rng rng(11);
  World world(small_world(8, 500), rng);
  std::optional<ArcView> target;
  world.for_each_arc([&](const ArcView& arc) {
    if (!target && arc.task_count >= 2) target = arc;
  });
  ASSERT_TRUE(target.has_value());

  // Same position, colliding position, and a position beyond the
  // immediate neighbors must all be refused.
  EXPECT_FALSE(world.move_vnode(target->slot, target->id).has_value());
  std::vector<Uint160> next;
  for (const ArcView& arc : world.successor_arcs(target->slot, 2)) {
    next.push_back(arc.id);
  }
  ASSERT_EQ(next.size(), 2u);
  EXPECT_FALSE(world.move_vnode(target->slot, next[0]).has_value());
  EXPECT_FALSE(
      world.move_vnode(target->slot, next[1] + Uint160(1)).has_value());
  EXPECT_TRUE(AuditClean(world));
}

// On a static network (no churn, no consumption) the fixpoint of the
// neighbor-move rule is the paper's band: no adjacent pair of ranges
// may differ by more than the δ factor.  With one vnode per node (this
// family never creates Sybils) every consecutive arc pair is covered.
TEST(ItemBalance, StaticNetworkReachesImbalanceBand) {
  support::Rng rng(1337);
  World world(small_world(32, 20000), rng);
  const auto strategy = lb::make_strategy("item-balance");
  sim::StrategyCounters counters;
  support::Rng decide_rng(99);

  std::uint64_t last_moves = 0;
  bool converged = false;
  for (int round = 0; round < 200; ++round) {
    strategy->decide(world, decide_rng, counters);
    if (counters.boundary_moves == last_moves) {
      converged = true;
      break;
    }
    last_moves = counters.boundary_moves;
  }
  ASSERT_TRUE(converged) << "no fixpoint after 200 rounds";
  EXPECT_GT(counters.boundary_moves, 0u);
  EXPECT_GT(counters.tasks_moved, 0u);
  EXPECT_TRUE(AuditClean(world));

  // δ = 2 band over every consecutive pair (wrapping at the ring seam).
  std::vector<std::uint64_t> loads;
  world.for_each_arc(
      [&](const ArcView& arc) { loads.push_back(arc.task_count); });
  ASSERT_GE(loads.size(), 2u);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const std::uint64_t mine = loads[i];
    const std::uint64_t theirs = loads[(i + 1) % loads.size()];
    if (mine + theirs < 2) continue;  // below the rule's trigger floor
    EXPECT_LT(mine, 2 * theirs + 1) << "pair " << i << " unbalanced";
    EXPECT_LT(theirs, 2 * mine + 1) << "pair " << i << " unbalanced";
  }
}

// A full audited engine run under churn: every tick's post-barrier
// world passes the invariant auditor while boundaries move, and the
// family stays Sybil-free by construction.
TEST(ItemBalance, AuditedChurnRun) {
  sim::Params p = small_world(200, 40000);
  p.churn_rate = 0.02;
  p.max_ticks = 200;
  sim::Engine engine(p, 4242, lb::make_strategy("item-balance"));
  engine.set_audit(true);
  const sim::RunResult result = engine.run();
  EXPECT_EQ(result.ticks, 200u);
  EXPECT_GT(result.strategy_counters.boundary_moves, 0u);
  EXPECT_GT(result.strategy_counters.tasks_moved, 0u);
  EXPECT_EQ(result.strategy_counters.sybils_created, 0u);
  EXPECT_EQ(result.strategy_counters.sybils_retired, 0u);
  EXPECT_TRUE(AuditClean(engine.world()));
}

// The determinism differential the parallel engine owes every
// strategy: seven seeds, each bit-identical at 1, 3 and 7 worker
// threads (odd counts that do not divide the 16 ring shards).
TEST(ItemBalance, SevenSeedThreadDeterminismDifferential) {
  sim::Params p = small_world(200, 4000);
  p.churn_rate = 0.05;
  p.max_ticks = 300;
  for (const std::uint64_t seed :
       {11u, 23u, 47u, 101u, 577u, 7919u, 104729u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::optional<sim::RunResult> base;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      sim::Engine engine(p, seed, lb::make_strategy("item-balance"));
      engine.set_audit(true);
      engine.set_threads(threads);
      engine.record_tick_series(true);
      const sim::RunResult result = engine.run();
      if (!base) {
        base = result;
        continue;
      }
      EXPECT_EQ(base->ticks, result.ticks) << threads << " threads";
      EXPECT_EQ(base->joins, result.joins) << threads << " threads";
      EXPECT_EQ(base->leaves, result.leaves) << threads << " threads";
      EXPECT_EQ(base->work_per_tick, result.work_per_tick)
          << threads << " threads";
      EXPECT_EQ(base->strategy_counters.boundary_moves,
                result.strategy_counters.boundary_moves)
          << threads << " threads";
      EXPECT_EQ(base->strategy_counters.tasks_moved,
                result.strategy_counters.tasks_moved)
          << threads << " threads";
      EXPECT_EQ(base->strategy_counters.workload_queries,
                result.strategy_counters.workload_queries)
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dhtlb
