// Shared plumbing for the paper-reproduction binaries (table*/fig*).
//
// Each binary regenerates one table or figure from the paper and prints
// (a) the paper's reported numbers alongside ours, where the paper gives
// them, and (b) the same rows/series layout, so shapes are comparable at
// a glance.  Trial counts default to a laptop-friendly fraction of the
// paper's 100 and scale up via DHTLB_TRIALS (see EXPERIMENTS.md).
//
// Every binary opens a Session, which owns the thread pool AND the
// telemetry collector (harness/telemetry.hpp): each printed number is
// also recorded as a structured JSON record, so CI can diff the run
// against a committed baseline without parsing the text tables.  The
// scale benches share state_fingerprint() for their end-state records.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "harness/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dhtlb::bench {

/// Order-sensitive fold of everything a run changed in the world
/// (workloads, remaining tasks, membership counts): any divergence — a
/// reordered alive list, one extra RNG draw, a task consumed by the
/// wrong node — changes it.  Truncated to the low 53 bits, which a
/// double holds exactly, so the JSON round trip is lossless and
/// compare_bench.py can require bit-equality against a baseline.
inline double state_fingerprint(const sim::Engine& engine) {
  const sim::Snapshot snap = engine.capture(engine.current_tick());
  std::uint64_t h = support::mix_seed(snap.remaining_tasks, snap.tick);
  h = support::mix_seed(h, snap.vnode_count);
  h = support::mix_seed(h, snap.alive_count);
  for (const std::uint64_t load : snap.workloads) {
    h = support::mix_seed(h, load);
  }
  return static_cast<double>(h & 0x1FFFFFFFFFFFFFull);
}

/// Prints the standard reproduction banner: what is being regenerated
/// and with how many trials.
inline void banner(const char* experiment_id, const char* description,
                   std::size_t trials) {
  std::printf("=== %s — %s ===\n", experiment_id, description);
  std::printf("trials per cell: %zu (override with DHTLB_TRIALS), seed %llu\n\n",
              trials,
              static_cast<unsigned long long>(support::env_seed()));
}

/// Base parameter set matching the paper's defaults (§V-B).
inline sim::Params paper_defaults(std::size_t nodes, std::uint64_t tasks) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

/// One reproduction run: banner, trial count, thread pool, telemetry.
/// `file_id` names the JSON output (BENCH_<file_id>.json) and should
/// match the binary name; `experiment_id` is the human-facing label
/// ("Table II").
class Session {
 public:
  Session(const char* file_id, const char* experiment_id,
          const char* description, std::size_t default_trials)
      : trials_(support::env_trials(default_trials)),
        pool_(support::env_threads()),
        telemetry_(file_id) {
    banner(experiment_id, description, trials_);
  }

  ~Session() {
    if (telemetry_.flush()) {
      std::printf("[telemetry] wrote %s\n", telemetry_.output_path().c_str());
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::size_t trials() const { return trials_; }
  support::ThreadPool& pool() { return pool_; }
  Telemetry& telemetry() { return telemetry_; }

  /// One mean-runtime-factor cell: runs the trials and records the
  /// value under `cell`.
  double mean_factor(const sim::Params& params, const char* strategy,
                     const std::string& cell) {
    const double mean =
        exp::run_trials(params, strategy, trials_, support::env_seed(), &pool_)
            .runtime_factor.mean;
    telemetry_.record(cell, "runtime_factor_mean", mean, trials_);
    return mean;
  }

  /// A whole grid of cells through ONE batched fan (exp::run_cells):
  /// threads drain the tail of one cell while starting the next, so the
  /// grid has a single pool barrier instead of one per cell.  Records
  /// each cell's mean runtime factor.
  std::vector<exp::Aggregate> run_grid(
      const std::vector<exp::CellSpec>& cells,
      const std::vector<std::string>& cell_labels) {
    auto aggs = exp::run_cells(cells, support::env_seed(), &pool_);
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      telemetry_.record(cell_labels[i], "runtime_factor_mean",
                        aggs[i].runtime_factor.mean, cells[i].trials);
    }
    return aggs;
  }

  /// Records a value computed outside the helpers above (figure series
  /// points, message counts, ...); `trials` 0 means the session's count.
  void record(const std::string& cell, const std::string& metric,
              double value, std::uint64_t trials = 0) {
    telemetry_.record(cell, metric, value, trials == 0 ? trials_ : trials);
  }

 private:
  std::size_t trials_;
  support::ThreadPool pool_;
  Telemetry telemetry_;
};

}  // namespace dhtlb::bench
