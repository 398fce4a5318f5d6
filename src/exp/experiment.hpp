// Experiment harness: runs N independent trials of a configuration and
// aggregates the paper's outputs.  Trials are deterministic functions of
// (base_seed, trial_index) and are fanned across a thread pool, so
// results are identical at any parallelism level.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "stats/descriptive.hpp"
#include "support/thread_pool.hpp"

namespace dhtlb::exp {

/// Aggregated results of `trials` runs of one configuration.
struct Aggregate {
  std::string strategy;
  sim::Params params;
  std::size_t trials = 0;

  stats::Summary runtime_factor;  // across trials
  stats::Summary ticks;
  double completion_rate = 0.0;   // trials that drained all tasks

  // Mean per-trial event counts.
  double mean_joins = 0.0;
  double mean_leaves = 0.0;
  double mean_sybils_created = 0.0;
  double mean_sybils_retired = 0.0;
  double mean_failed_placements = 0.0;
  double mean_workload_queries = 0.0;
  double mean_invitations_sent = 0.0;
  double mean_invitations_accepted = 0.0;
};

/// Runs `trials` simulations of `params` under `strategy_name` (a
/// lb::make_strategy name) and aggregates.  `pool` may be null for
/// serial execution.  Trial i uses seed mix(base_seed, i).  A one-cell
/// run_cells call.
Aggregate run_trials(const sim::Params& params, std::string_view strategy_name,
                     std::size_t trials, std::uint64_t base_seed,
                     support::ThreadPool* pool = nullptr);

/// One configuration of a multi-cell experiment grid.
struct CellSpec {
  sim::Params params;
  std::string strategy;
  std::size_t trials = 0;
};

/// Runs every cell's trials through ONE parallel fan instead of one
/// pool barrier per cell: all (cell, trial) pairs are flattened and
/// scheduled together, so worker threads drain the tail of a slow cell
/// while others start the next one.  Trial i of every cell uses seed
/// mix(base_seed, i), so each cell's Aggregate is the same as running
/// that cell alone.
std::vector<Aggregate> run_cells(const std::vector<CellSpec>& cells,
                                 std::uint64_t base_seed,
                                 support::ThreadPool* pool = nullptr);

/// Runs ONE trial with workload snapshots at the given ticks — the
/// generator behind the paper's distribution figures.
sim::RunResult run_with_snapshots(const sim::Params& params,
                                  std::string_view strategy_name,
                                  std::uint64_t seed,
                                  std::vector<std::uint64_t> snapshot_ticks);

/// The initial per-node workload assignment of a fresh network (used by
/// Table I / Figures 1-3, which need no ticks at all).
std::vector<std::uint64_t> initial_workloads(std::size_t nodes,
                                             std::uint64_t tasks,
                                             std::uint64_t seed);

}  // namespace dhtlb::exp
