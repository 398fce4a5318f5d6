#include "exp/experiment.hpp"

#include <iterator>
#include <utility>

#include "lb/factory.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"

namespace dhtlb::exp {

namespace {

// Per-trial result slots shared between the coordinating thread and the
// pool workers.  Workers write distinct indices, so a lock is not needed
// for correctness — it is here so the sharing is *compiler-checked*
// (GUARDED_BY + -Wthread-safety) instead of by-convention; one
// uncontended lock per multi-millisecond trial is noise.
class TrialSlots {
 public:
  explicit TrialSlots(std::size_t n) : slots_(n) {}

  void store(std::size_t i, sim::RunResult result) EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    slots_[i] = std::move(result);
  }

  /// Moves the slots out; call only after the pool barrier (wait_idle /
  /// parallel_for return) has ordered every store before this read.
  std::vector<sim::RunResult> take() EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return std::move(slots_);
  }

 private:
  support::Mutex mu_;
  std::vector<sim::RunResult> slots_ GUARDED_BY(mu_);
};

// Folds one cell's per-trial results into its Aggregate.
Aggregate aggregate_results(const sim::Params& params,
                            std::string_view strategy_name,
                            const std::vector<sim::RunResult>& results) {
  const std::size_t trials = results.size();
  Aggregate agg;
  agg.strategy = std::string(strategy_name);
  agg.params = params;
  agg.trials = trials;

  std::vector<double> factors;
  std::vector<double> ticks;
  factors.reserve(trials);
  ticks.reserve(trials);
  std::size_t completed = 0;
  for (const auto& r : results) {
    factors.push_back(r.runtime_factor);
    ticks.push_back(static_cast<double>(r.ticks));
    if (r.completed) ++completed;
    agg.mean_joins += static_cast<double>(r.joins);
    agg.mean_leaves += static_cast<double>(r.leaves);
    const auto& c = r.strategy_counters;
    agg.mean_sybils_created += static_cast<double>(c.sybils_created);
    agg.mean_sybils_retired += static_cast<double>(c.sybils_retired);
    agg.mean_failed_placements += static_cast<double>(c.failed_placements);
    agg.mean_workload_queries += static_cast<double>(c.workload_queries);
    agg.mean_invitations_sent += static_cast<double>(c.invitations_sent);
    agg.mean_invitations_accepted +=
        static_cast<double>(c.invitations_accepted);
  }
  agg.runtime_factor = stats::summarize(factors);
  agg.ticks = stats::summarize(ticks);
  if (trials > 0) {
    const auto n = static_cast<double>(trials);
    agg.completion_rate = static_cast<double>(completed) / n;
    agg.mean_joins /= n;
    agg.mean_leaves /= n;
    agg.mean_sybils_created /= n;
    agg.mean_sybils_retired /= n;
    agg.mean_failed_placements /= n;
    agg.mean_workload_queries /= n;
    agg.mean_invitations_sent /= n;
    agg.mean_invitations_accepted /= n;
  }
  return agg;
}

}  // namespace

std::vector<Aggregate> run_cells(const std::vector<CellSpec>& cells,
                                 std::uint64_t base_seed,
                                 support::ThreadPool* pool) {
  // Flatten every (cell, trial) pair into one index space so a single
  // parallel_for schedules the whole grid — no pool barrier per cell.
  struct Job {
    std::size_t cell;
    std::size_t trial;  // index within the cell, seeds mix(base, trial)
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t t = 0; t < cells[c].trials; ++t) {
      jobs.push_back(Job{c, t});
    }
  }
  TrialSlots results(jobs.size());

  auto run_one = [&](std::size_t j) {
    const Job& job = jobs[j];
    const CellSpec& cell = cells[job.cell];
    sim::Engine engine(cell.params, support::mix_seed(base_seed, job.trial),
                       lb::make_strategy(cell.strategy));
    results.store(j, engine.run());
  };
  if (pool != nullptr) {
    pool->parallel_for(jobs.size(), run_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_one(j);
  }

  // Scatter the flat job results back into per-cell vectors; jobs were
  // appended cell-major, so each cell's trials are a contiguous slice.
  std::vector<sim::RunResult> flat = results.take();
  std::vector<Aggregate> aggregates;
  aggregates.reserve(cells.size());
  std::size_t next = 0;
  for (const CellSpec& cell : cells) {
    std::vector<sim::RunResult> cell_results(
        std::make_move_iterator(flat.begin() +
                                static_cast<std::ptrdiff_t>(next)),
        std::make_move_iterator(flat.begin() +
                                static_cast<std::ptrdiff_t>(next +
                                                            cell.trials)));
    next += cell.trials;
    aggregates.push_back(
        aggregate_results(cell.params, cell.strategy, cell_results));
  }
  return aggregates;
}

Aggregate run_trials(const sim::Params& params, std::string_view strategy_name,
                     std::size_t trials, std::uint64_t base_seed,
                     support::ThreadPool* pool) {
  return run_cells({CellSpec{params, std::string(strategy_name), trials}},
                   base_seed, pool)
      .front();
}

sim::RunResult run_with_snapshots(const sim::Params& params,
                                  std::string_view strategy_name,
                                  std::uint64_t seed,
                                  std::vector<std::uint64_t> snapshot_ticks) {
  sim::Engine engine(params, seed, lb::make_strategy(strategy_name));
  engine.request_snapshots(std::move(snapshot_ticks));
  return engine.run();
}

std::vector<std::uint64_t> initial_workloads(std::size_t nodes,
                                             std::uint64_t tasks,
                                             std::uint64_t seed) {
  sim::Params params;
  params.initial_nodes = nodes;
  params.total_tasks = tasks;
  support::Rng rng(seed);
  const sim::World world(params, rng);
  return world.alive_workloads();
}

}  // namespace dhtlb::exp
