// Streamed task provisioning (sim/task_stream.hpp): the schedule's
// closed forms, the seed derivation pinned against an independent
// replay, and audited engine runs proving streamed arrivals conserve
// tasks across churn joins/leaves and Sybil splits — plus the
// 1-vs-N-thread differential for streamed mode, mirroring
// parallel_determinism_test.cpp.
#include "sim/task_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/sha1.hpp"
#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

// Awkward split parameters on purpose: remainders at both the tick and
// the shard level.
constexpr std::uint64_t kSeeds[] = {11, 23, 47, 101, 577, 7919, 104729};

TEST(TaskStream, ScheduleSumsToTotal) {
  for (const auto& [total, window] :
       {std::pair<std::uint64_t, std::uint64_t>{1000, 7},
        {999, 1000},  // more ticks than tasks: some ticks get zero
        {1, 1},
        {100'003, 97}}) {
    const TaskStream stream(42, total, window);
    std::uint64_t sum = 0;
    for (std::uint64_t t = 1; t <= window; ++t) {
      sum += stream.count_at(t);
      EXPECT_EQ(sum, stream.cumulative(t)) << "tick " << t;
      EXPECT_EQ(stream.exhausted_after(t), sum == total) << "tick " << t;
    }
    EXPECT_EQ(sum, total);
    EXPECT_EQ(stream.count_at(0), 0u);
    EXPECT_EQ(stream.count_at(window + 1), 0u);
    EXPECT_EQ(stream.cumulative(0), 0u);
    EXPECT_EQ(stream.cumulative(window + 5), total);
  }
}

TEST(TaskStream, EarlyTicksAbsorbTheRemainder) {
  // 23 = 3*7 + 2: ticks 1-2 get 4, ticks 3-7 get 3.
  const TaskStream stream(1, 23, 7);
  EXPECT_EQ(stream.count_at(1), 4u);
  EXPECT_EQ(stream.count_at(2), 4u);
  EXPECT_EQ(stream.count_at(3), 3u);
  EXPECT_EQ(stream.count_at(7), 3u);
}

TEST(TaskStream, ShardCountsPartitionTheTick) {
  const TaskStream stream(7, 100'003, 97);
  for (std::uint64_t t = 1; t <= 97; ++t) {
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < kTickShards; ++s) {
      sum += stream.shard_count(t, s);
    }
    EXPECT_EQ(sum, stream.count_at(t)) << "tick " << t;
  }
}

TEST(TaskStream, ShardOffsetsTileTheTickBuffer) {
  // Shard s's range starts where shard s-1's ends, from 0 to count_at.
  const TaskStream stream(7, 100'003, 97);
  for (const std::uint64_t t : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{50}, std::uint64_t{97},
                                std::uint64_t{98}}) {
    std::uint64_t next = 0;
    for (std::size_t s = 0; s < kTickShards; ++s) {
      EXPECT_EQ(stream.shard_offset(t, s), next) << "tick " << t;
      next += stream.shard_count(t, s);
    }
    EXPECT_EQ(next, stream.count_at(t)) << "tick " << t;
  }
}

TEST(TaskStreamDeathTest, DrawRejectsAMisSizedRange) {
  const TaskStream stream(99, 5000, 13);
  std::vector<TaskKey> short_by_one(stream.shard_count(1, 0) - 1);
  EXPECT_DEATH(stream.draw_shard(1, 0, short_by_one),
               "keys for a cell of");
}

TEST(TaskStream, DrawMatchesShardCountAndIsRepeatable) {
  const TaskStream stream(99, 5000, 13);
  for (std::uint64_t t = 1; t <= 13; ++t) {
    for (std::size_t s = 0; s < kTickShards; ++s) {
      std::vector<TaskKey> once(stream.shard_count(t, s));
      std::vector<TaskKey> twice(stream.shard_count(t, s));
      stream.draw_shard(t, s, once);
      stream.draw_shard(t, s, twice);
      EXPECT_EQ(once, twice) << "draws must be pure in (tick, shard)";
    }
  }
}

// The ISSUE's differential: the full horizon drawn eagerly must equal an
// independent replay of the stream that reconstructs every key from the
// documented derivation — stream_seed(mix_seed(seed, tick), kStreamArrive,
// shard) feeding Sha1::hash_u64.  This pins the derivation itself: any
// reordering, relabeling, or extra draw changes the multiset.
TEST(TaskStream, EagerDrawMatchesReferenceReplayOnSevenSeeds) {
  constexpr std::uint64_t kTotal = 10'007;
  constexpr std::uint64_t kWindow = 53;
  for (const std::uint64_t seed : kSeeds) {
    const TaskStream stream(seed, kTotal, kWindow);
    for (std::uint64_t t = 1; t <= kWindow; ++t) {
      // Eager per-tick multiset via the production API: one tick buffer,
      // each shard drawing into its closed-form range.
      std::vector<TaskKey> eager(stream.count_at(t));
      for (std::size_t s = 0; s < kTickShards; ++s) {
        stream.draw_shard(t, s,
                          std::span<TaskKey>(eager).subspan(
                              stream.shard_offset(t, s),
                              stream.shard_count(t, s)));
      }
      // Reference replay, from first principles: balanced tick share,
      // balanced shard share, then raw stream_seed + SHA-1 draws.
      const std::uint64_t tick_n =
          kTotal / kWindow + ((t - 1) < kTotal % kWindow ? 1 : 0);
      std::vector<TaskKey> replay;
      for (std::size_t s = 0; s < kTickShards; ++s) {
        const std::uint64_t shard_n =
            tick_n / kTickShards + (s < tick_n % kTickShards ? 1 : 0);
        support::Rng rng(support::stream_seed(
            support::mix_seed(seed, t), kStreamArrive, s));
        for (std::uint64_t i = 0; i < shard_n; ++i) {
          replay.push_back(hashing::Sha1::hash_u64(rng()));
        }
      }
      ASSERT_EQ(eager.size(), tick_n) << "seed " << seed << " tick " << t;
      // Compare as multisets: fold order is an engine concern, the
      // arrival *set* is the stream's contract.
      std::sort(eager.begin(), eager.end());
      std::sort(replay.begin(), replay.end());
      EXPECT_EQ(eager, replay) << "seed " << seed << " tick " << t;
    }
  }
}

Params streamed_params(std::size_t nodes, std::uint64_t tasks,
                       std::uint64_t window) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  p.churn_rate = 0.05;
  p.provisioning = TaskProvisioning::kStreamed;
  p.arrival_ticks = window;
  p.max_ticks = 400;
  return p;
}

// Conservation under the full event mix: churn joins/leaves move arcs
// between nodes, the Sybil strategy splits arcs mid-stream, and every
// tick the auditor checks completed + remaining == arrived-so-far (and
// the engine checks arrived-so-far against the closed form).  The
// auditor aborts the run on the first violation.
TEST(TaskStreamEngine, AuditedRunConservesTasksAcrossChurnAndSybils) {
  for (const std::uint64_t seed : kSeeds) {
    Engine engine(streamed_params(300, 6'000, 15), seed,
                  lb::make_strategy("random-injection"));
    engine.set_audit(true);
    const RunResult result = engine.run();
    EXPECT_TRUE(result.completed) << "seed " << seed;
    EXPECT_EQ(engine.world().remaining_tasks(), 0u);
    // Every scheduled task arrived — no drops, no duplicates.
    EXPECT_EQ(engine.world().total_tasks(), 6'000u) << "seed " << seed;
    ASSERT_NE(engine.task_stream(), nullptr);
    EXPECT_TRUE(engine.task_stream()->exhausted_after(result.ticks));
  }
}

// A streamed world starts empty; the engine must keep ticking through
// the arrival window rather than declaring an empty ring done.
TEST(TaskStreamEngine, DrainedWorldKeepsTickingWhileStreamFlows) {
  Params p = streamed_params(50, 500, 10);
  p.churn_rate = 0.0;
  Engine engine(p, 7);
  engine.set_audit(true);
  EXPECT_EQ(engine.world().remaining_tasks(), 0u);
  EXPECT_EQ(engine.world().total_tasks(), 0u);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.ticks, 10u) << "must outlive the arrival window";
  EXPECT_EQ(engine.world().total_tasks(), 500u);
}

// ideal_ticks can never undercut the arrival window: a job that arrives
// over 40 ticks cannot ideally finish in 10.
TEST(TaskStreamEngine, IdealTicksFloorsAtTheArrivalWindow) {
  Engine engine(streamed_params(50, 500, 40), 7);
  EXPECT_EQ(engine.ideal_ticks(), 40u);
}

// A job smaller than its window arrives one task per tick, so its last
// arrival is tick total_tasks: the ideal floors there, not at the window.
TEST(TaskStreamEngine, IdealTicksFloorsAtTheLastArrivalTick) {
  Params p = streamed_params(100, 100, 1'000);
  p.churn_rate = 0.0;
  Engine engine(p, 7);
  EXPECT_EQ(engine.ideal_ticks(), 100u);
  const RunResult result = engine.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.ticks, 100u);
  EXPECT_DOUBLE_EQ(result.runtime_factor, 1.0);
}

RunResult run_streamed_at(const Params& p, std::uint64_t seed,
                          std::size_t threads) {
  Engine engine(p, seed, lb::make_strategy("random-injection"));
  engine.set_audit(true);
  engine.set_threads(threads);
  engine.record_tick_series(true);
  engine.request_snapshots({0, 5, 20, 60});
  return engine.run();
}

// Streamed-mode counterpart of parallel_determinism_test.cpp: the
// arrival folds join churn and consumption in the shard pipeline, so
// the same (params, seed) must stay bit-identical at odd thread counts
// that don't divide the 16 shards.
TEST(TaskStreamEngine, StreamedRunsBitIdenticalAcrossThreadCounts) {
  const Params p = streamed_params(300, 6'000, 20);
  for (const std::uint64_t seed : {11u, 577u, 104729u}) {
    const RunResult base = run_streamed_at(p, seed, 1);
    ASSERT_GT(base.joins + base.leaves, 0u) << "scenario must churn";
    for (const std::size_t threads : {std::size_t{3}, std::size_t{7}}) {
      const RunResult other = run_streamed_at(p, seed, threads);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", 1 vs " << threads << " threads");
      EXPECT_EQ(base.ticks, other.ticks);
      EXPECT_EQ(base.completed, other.completed);
      EXPECT_EQ(base.joins, other.joins);
      EXPECT_EQ(base.leaves, other.leaves);
      EXPECT_EQ(base.strategy_counters.sybils_created,
                other.strategy_counters.sybils_created);
      EXPECT_EQ(base.work_per_tick, other.work_per_tick);
      ASSERT_EQ(base.snapshots.size(), other.snapshots.size());
      for (std::size_t i = 0; i < base.snapshots.size(); ++i) {
        EXPECT_EQ(base.snapshots[i].workloads, other.snapshots[i].workloads)
            << "snapshot at tick " << base.snapshots[i].tick;
      }
    }
  }
}

TEST(TaskStreamEngine, PreallocatedModeIsUntouchedByTheFlag) {
  // Same params except provisioning: the preallocated run must not
  // consult the stream machinery at all (task_stream() is null) and
  // must start fully loaded.
  Params p;
  p.initial_nodes = 100;
  p.total_tasks = 2'000;
  Engine engine(p, 5);
  EXPECT_EQ(engine.task_stream(), nullptr);
  EXPECT_EQ(engine.world().remaining_tasks(), 2'000u);
}

TEST(TaskStreamParams, ValidationRejectsWindowWithoutStreamedMode) {
  Params p;
  p.arrival_ticks = 10;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.provisioning = TaskProvisioning::kStreamed;
  EXPECT_NO_THROW(p.validate());
}

TEST(TaskStreamParams, DescribeMentionsStreamingOnlyWhenStreamed) {
  Params p;
  EXPECT_EQ(p.describe().find("provisioning"), std::string::npos);
  p.provisioning = TaskProvisioning::kStreamed;
  EXPECT_NE(p.describe().find("provisioning=streamed"), std::string::npos);
}

}  // namespace
}  // namespace dhtlb::sim
