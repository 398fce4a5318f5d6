// Shared plumbing for the benches of dhtlb_bench (bench/dhtlb_bench.cpp).
//
// Each bench regenerates one table or figure from the paper, or one of
// our scale tables, and prints (a) the paper's reported numbers
// alongside ours, where the paper gives them, and (b) the same
// rows/series layout, so shapes are comparable at a glance.  Trial
// counts default to a laptop-friendly fraction of the paper's 100 and
// scale up via DHTLB_TRIALS (see EXPERIMENTS.md).
//
// Every bench body runs inside a Session, which reads the env knobs,
// owns the thread pool AND is the one owner of the telemetry collector
// (harness/telemetry.hpp): each printed number is also recorded as a
// structured JSON record, so CI can diff the run against a committed
// baseline without parsing the text tables.  The scale benches share
// state_fingerprint() for their end-state records; the snapshot figures
// share print_histogram_pair() and max_of().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "harness/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "stats/histogram.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "viz/ascii_hist.hpp"

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

/// Prints "--- title ---" and the 12-bin workload histograms of two
/// snapshots side by side.
inline void print_histogram_pair(const char* title,
                                 const std::vector<std::uint64_t>& left,
                                 const char* left_label,
                                 const std::vector<std::uint64_t>& right,
                                 const char* right_label) {
  std::printf("--- %s ---\n%s", title,
              viz::render_comparison(
                  stats::workload_histogram(left, 12).bins(), left_label,
                  stats::workload_histogram(right, 12).bins(), right_label)
                  .c_str());
}

/// The largest workload of a (non-empty) snapshot.
inline std::uint64_t max_of(const std::vector<std::uint64_t>& loads) {
  return *std::max_element(loads.begin(), loads.end());
}

/// Base parameter set matching the paper's defaults (§V-B).
inline sim::Params paper_defaults(std::size_t nodes, std::uint64_t tasks) {
  sim::Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

/// One bench run: env knobs, banner, thread pool, telemetry.  The
/// constructor reads DHTLB_TRIALS (unless the bench runs no trials),
/// DHTLB_SEED, DHTLB_THREADS and DHTLB_BENCH_DIR (default "."), so a
/// malformed knob throws std::invalid_argument before any work; the
/// telemetry gets the seed and directory from here.  `file_id` names the JSON
/// output (BENCH_<file_id>.json); `experiment_id` is the human-facing
/// label ("Table II"); `default_trials` 0 marks a bench without trials.
class Session {
 public:
  Session(const char* file_id, const char* experiment_id,
          const char* description, std::size_t default_trials)
      : trials_(default_trials == 0 ? 0
                                    : support::env_trials(default_trials)),
        seed_(support::env_seed()),
        threads_(support::env_threads()),
        telemetry_(file_id, seed_,
                   support::env_string("DHTLB_BENCH_DIR", ".")) {
    std::printf("=== %s — %s ===\n", experiment_id, description);
    if (trials_ != 0) {
      std::printf("trials per cell: %zu (override with DHTLB_TRIALS), ",
                  trials_);
    }
    std::printf("seed %llu\n\n", static_cast<unsigned long long>(seed_));
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::size_t trials() const { return trials_; }
  std::uint64_t seed() const { return seed_; }
  /// DHTLB_THREADS, for the engines a bench sizes itself (0 = all cores).
  std::size_t threads() const { return threads_; }

  /// The trial-fan pool, created on first use so benches that never fan
  /// keep no idle threads (and their peak RSS).
  support::ThreadPool& pool() {
    if (!pool_) pool_.emplace(threads_);
    return *pool_;
  }

  /// One mean-runtime-factor cell: runs the trials and records the
  /// value under `cell`.
  double mean_factor(const sim::Params& params, const char* strategy,
                     const std::string& cell) {
    const double mean =
        exp::run_trials(params, strategy, trials_, seed_, &pool())
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
    auto aggs = exp::run_cells(cells, seed_, &pool());
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      telemetry_.record(cell_labels[i], "runtime_factor_mean",
                        aggs[i].runtime_factor.mean, cells[i].trials);
    }
    return aggs;
  }

  /// Records a value computed outside the helpers above (figure series
  /// points, message counts, ...); `trials` 0 means the session's count.
  /// `peak_rss_bytes` (Telemetry::current_peak_rss_bytes()) opts the
  /// record into the memory gate.
  void record(const std::string& cell, const std::string& metric,
              double value, std::uint64_t trials = 0,
              std::uint64_t peak_rss_bytes = 0) {
    telemetry_.record(cell, metric, value, trials == 0 ? trials_ : trials,
                      peak_rss_bytes);
  }

  /// Writes BENCH_<file_id>.json: the only write, made once the bench
  /// body has returned, so a run that throws leaves no file.  Throws
  /// std::runtime_error when the file cannot be written.
  void flush() {
    if (!telemetry_.flush()) {
      throw std::runtime_error("cannot write " + telemetry_.output_path());
    }
    std::printf("[telemetry] wrote %s\n", telemetry_.output_path().c_str());
  }

 private:
  std::size_t trials_;
  std::uint64_t seed_;
  std::size_t threads_;
  std::optional<support::ThreadPool> pool_;
  Telemetry telemetry_;
};

}  // namespace dhtlb::bench
