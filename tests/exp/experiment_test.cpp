#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace dhtlb::exp {
namespace {

sim::Params tiny(std::size_t nodes = 100, std::uint64_t tasks = 10'000) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

TEST(RunTrials, AggregatesRequestedTrialCount) {
  const Aggregate agg = run_trials(tiny(), "none", 5, 1);
  EXPECT_EQ(agg.trials, 5u);
  EXPECT_EQ(agg.runtime_factor.count, 5u);
  EXPECT_EQ(agg.strategy, "none");
  EXPECT_DOUBLE_EQ(agg.completion_rate, 1.0);
}

/// Exact (bitwise) equality of every Aggregate number the examples print.
void expect_identical(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.p25, b.p25);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p75, b.p75);
  EXPECT_EQ(a.max, b.max);
}

void expect_identical(const Aggregate& a, const Aggregate& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.trials, b.trials);
  expect_identical(a.runtime_factor, b.runtime_factor);
  EXPECT_EQ(a.completion_rate, b.completion_rate);
  EXPECT_EQ(a.mean_leaves, b.mean_leaves);
  EXPECT_EQ(a.mean_sybils_created, b.mean_sybils_created);
  EXPECT_EQ(a.mean_workload_queries, b.mean_workload_queries);
}

TEST(RunTrials, SerialAndParallelAgreeExactly) {
  // Trials are functions of (base_seed, index) only: the thread pool
  // must not change any number strategy_comparison or dhtlb_bench prints,
  // with or without churn.
  sim::Params churny = tiny();
  churny.churn_rate = 0.01;
  const std::vector<CellSpec> cells = {
      {tiny(), "random-injection", 8},
      {churny, "churn", 8},
  };
  support::ThreadPool pool(4);
  for (const CellSpec& cell : cells) {
    SCOPED_TRACE(cell.strategy);
    const Aggregate serial =
        run_trials(cell.params, cell.strategy, cell.trials, 2);
    const Aggregate parallel =
        run_trials(cell.params, cell.strategy, cell.trials, 2, &pool);
    expect_identical(serial, parallel);
  }
}

TEST(RunTrials, DifferentBaseSeedsDiffer) {
  const Aggregate a = run_trials(tiny(), "none", 3, 1);
  const Aggregate b = run_trials(tiny(), "none", 3, 99);
  EXPECT_NE(a.runtime_factor.mean, b.runtime_factor.mean);
}

TEST(RunTrials, ChurnCountersPropagate) {
  sim::Params p = tiny();
  p.churn_rate = 0.01;
  const Aggregate agg = run_trials(p, "churn", 3, 3);
  EXPECT_GT(agg.mean_leaves, 0.0);
  EXPECT_DOUBLE_EQ(agg.mean_sybils_created, 0.0);
}

TEST(RunTrials, StrategyCountersPropagate) {
  const Aggregate agg = run_trials(tiny(), "smart-neighbor-injection", 3, 4);
  EXPECT_GT(agg.mean_sybils_created, 0.0);
  EXPECT_GT(agg.mean_workload_queries, 0.0);
}

TEST(RunCells, MatchesPerCellRunTrialsExactly) {
  // run_cells only reschedules: every aggregate must be bit-identical to
  // the per-cell run_trials result at the same base seed.
  sim::Params churny = tiny();
  churny.churn_rate = 0.01;
  const std::vector<CellSpec> cells = {
      {tiny(), "none", 4},
      {churny, "churn", 3},
      {tiny(), "random-injection", 5},
  };
  support::ThreadPool pool(4);
  const auto batched = run_cells(cells, 21, &pool);
  ASSERT_EQ(batched.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Aggregate solo =
        run_trials(cells[c].params, cells[c].strategy, cells[c].trials, 21);
    EXPECT_EQ(batched[c].strategy, solo.strategy);
    EXPECT_EQ(batched[c].trials, solo.trials);
    EXPECT_DOUBLE_EQ(batched[c].runtime_factor.mean,
                     solo.runtime_factor.mean);
    EXPECT_DOUBLE_EQ(batched[c].runtime_factor.min, solo.runtime_factor.min);
    EXPECT_DOUBLE_EQ(batched[c].runtime_factor.max, solo.runtime_factor.max);
    EXPECT_DOUBLE_EQ(batched[c].completion_rate, solo.completion_rate);
    EXPECT_DOUBLE_EQ(batched[c].mean_leaves, solo.mean_leaves);
    EXPECT_DOUBLE_EQ(batched[c].mean_sybils_created, solo.mean_sybils_created);
    EXPECT_DOUBLE_EQ(batched[c].mean_workload_queries,
                     solo.mean_workload_queries);
  }
}

TEST(RunCells, HandlesEmptyGridAndZeroTrialCells) {
  EXPECT_TRUE(run_cells({}, 1).empty());
  const auto aggs = run_cells({{tiny(), "none", 0}}, 1);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].trials, 0u);
  EXPECT_DOUBLE_EQ(aggs[0].completion_rate, 0.0);
}

TEST(RunWithSnapshots, DeliversRequestedTicks) {
  const auto r = run_with_snapshots(tiny(), "random-injection", 5, {0, 5, 35});
  ASSERT_EQ(r.snapshots.size(), 3u);
  EXPECT_EQ(r.snapshots[2].tick, 35u);
}

TEST(InitialWorkloads, SumsToTaskCount) {
  const auto loads = initial_workloads(100, 10'000, 7);
  EXPECT_EQ(loads.size(), 100u);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}),
            10'000u);
}

TEST(InitialWorkloads, DeterministicPerSeed) {
  EXPECT_EQ(initial_workloads(50, 1000, 1), initial_workloads(50, 1000, 1));
  EXPECT_NE(initial_workloads(50, 1000, 1), initial_workloads(50, 1000, 2));
}

TEST(InitialWorkloads, MedianIsNearLn2TimesMean) {
  // Theory behind Table I: arc sizes are ~exponential, so the median
  // workload is ~ln 2 ≈ 0.693 of the mean.  Average the median over
  // several seeds to damp noise.
  constexpr std::size_t kNodes = 1000;
  constexpr std::uint64_t kTasks = 100'000;  // mean 100 tasks/node
  double median_sum = 0.0;
  constexpr int kSeeds = 10;
  for (int s = 0; s < kSeeds; ++s) {
    const auto loads =
        initial_workloads(kNodes, kTasks, static_cast<std::uint64_t>(s));
    median_sum += stats::median_u64(loads);
  }
  const double mean_median = median_sum / kSeeds;
  EXPECT_NEAR(mean_median, 69.3, 8.0)
      << "Table I row (1000, 100000): paper reports 69.410";
}

TEST(InitialWorkloads, StdDevIsNearTheMean) {
  // Second Table I claim: sigma is close to the mean workload
  // (exponential arcs => stddev ≈ mean).
  const auto loads = initial_workloads(1000, 100'000, 11);
  std::vector<double> d(loads.begin(), loads.end());
  const auto s = stats::summarize(d);
  EXPECT_NEAR(s.stddev, 100.0, 35.0);
}

}  // namespace
}  // namespace dhtlb::exp
