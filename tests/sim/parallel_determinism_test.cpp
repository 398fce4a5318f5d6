// Randomized differential test for the parallel tick engine: the same
// (seed, scenario) must produce bit-identical results at every thread
// count.  This is the unit-shard counterpart of the scenario.golden.*
// ctests at 1, 2 and 8 threads — it compares full RunResult structs
// (snapshots, tick series, event and strategy counters) rather than
// rendered output, and it runs with the invariant auditor forced ON so a
// divergent intermediate state trips even when the final numbers happen
// to agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"

namespace dhtlb::sim {
namespace {

Params churny(std::size_t nodes, std::uint64_t tasks) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  p.churn_rate = 0.05;  // heavy churn: every tick departs + joins nodes
  p.max_ticks = 400;
  return p;
}

RunResult run_at(const Params& p, std::uint64_t seed, std::size_t threads,
                 const char* strategy) {
  Engine engine(p, seed,
                strategy ? lb::make_strategy(strategy) : nullptr);
  engine.set_audit(true);  // audit the post-barrier world every tick
  engine.set_threads(threads);
  engine.record_tick_series(true);
  engine.request_snapshots({0, 10, 50, 100});
  return engine.run();
}

void expect_identical(const RunResult& a, const RunResult& b,
                      std::uint64_t seed, std::size_t threads) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << ", 1 vs " << threads << " threads");
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.ideal_ticks, b.ideal_ticks);
  EXPECT_EQ(a.runtime_factor, b.runtime_factor);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.avg_work_per_tick, b.avg_work_per_tick);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.strategy_counters.sybils_created,
            b.strategy_counters.sybils_created);
  EXPECT_EQ(a.strategy_counters.sybils_retired,
            b.strategy_counters.sybils_retired);
  EXPECT_EQ(a.strategy_counters.tasks_acquired_by_sybils,
            b.strategy_counters.tasks_acquired_by_sybils);
  EXPECT_EQ(a.strategy_counters.failed_placements,
            b.strategy_counters.failed_placements);
  EXPECT_EQ(a.strategy_counters.workload_queries,
            b.strategy_counters.workload_queries);
  EXPECT_EQ(a.strategy_counters.invitations_sent,
            b.strategy_counters.invitations_sent);
  EXPECT_EQ(a.strategy_counters.invitations_accepted,
            b.strategy_counters.invitations_accepted);
  EXPECT_EQ(a.strategy_counters.ranges_marked_invalid,
            b.strategy_counters.ranges_marked_invalid);
  EXPECT_EQ(a.strategy_counters.boundary_moves,
            b.strategy_counters.boundary_moves);
  EXPECT_EQ(a.strategy_counters.tasks_moved, b.strategy_counters.tasks_moved);

  // The work-per-tick series is the tick-by-tick trace of consumption:
  // any shard fold applied in the wrong order shows up here first.
  EXPECT_EQ(a.work_per_tick, b.work_per_tick);

  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    const Snapshot& sa = a.snapshots[i];
    const Snapshot& sb = b.snapshots[i];
    EXPECT_EQ(sa.tick, sb.tick);
    EXPECT_EQ(sa.remaining_tasks, sb.remaining_tasks);
    EXPECT_EQ(sa.vnode_count, sb.vnode_count);
    EXPECT_EQ(sa.alive_count, sb.alive_count);
    // Bit-identical per-node workloads in identical (alive) order.
    EXPECT_EQ(sa.workloads, sb.workloads) << "snapshot at tick " << sa.tick;
  }
}

// Seven random seeds, each run at 1, 3 and 7 threads — deliberately odd
// counts that do not divide the 16 ring shards, so shard->worker
// assignment varies maximally between runs.
TEST(ParallelDeterminism, ChurnOnlyBitIdenticalAcrossThreadCounts) {
  const Params p = churny(400, 8'000);
  for (const std::uint64_t seed : {11u, 23u, 47u, 101u, 577u, 7919u, 104729u}) {
    const RunResult base = run_at(p, seed, 1, nullptr);
    ASSERT_GT(base.joins + base.leaves, 0u) << "scenario must churn";
    for (const std::size_t threads : {std::size_t{3}, std::size_t{7}}) {
      expect_identical(base, run_at(p, seed, threads, nullptr), seed,
                       threads);
    }
  }
}

// Same differential, with a Sybil strategy active: strategy decisions
// must observe the post-barrier world identically at every thread
// count, and their injections feed back into later ticks.
TEST(ParallelDeterminism, SybilStrategyBitIdenticalAcrossThreadCounts) {
  const Params p = churny(300, 6'000);
  for (const std::uint64_t seed : {5u, 31u, 8191u}) {
    const RunResult base = run_at(p, seed, 1, "smart-neighbor-injection");
    for (const std::size_t threads : {std::size_t{3}, std::size_t{7}}) {
      expect_identical(base, run_at(p, seed, threads,
                                    "smart-neighbor-injection"),
                       seed, threads);
    }
  }
}

}  // namespace
}  // namespace dhtlb::sim
