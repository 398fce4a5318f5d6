// Compares all six balancing policies on the same network, averaged over
// several trials, and prints a paper-style results table plus the final
// workload-distribution comparison (the paper's Figure 9 view).
//
// Usage: strategy_comparison [nodes] [tasks] [trials]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "exp/experiment.hpp"
#include "lb/factory.hpp"
#include "stats/histogram.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "viz/ascii_hist.hpp"

int main(int argc, char** argv) {
  using namespace dhtlb;

  sim::Params params;
  std::size_t trials = 0;
  try {
    params.initial_nodes =
        support::positional_count(argc, argv, 1, "nodes", 500);
    params.total_tasks =
        support::positional_count(argc, argv, 2, "tasks", 50'000);
    trials = support::positional_count(argc, argv, 3, "trials", 10);
    params.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "strategy_comparison: %s\n", e.what());
    return 1;
  }
  const std::uint64_t seed = support::env_seed();

  support::ThreadPool pool(support::env_threads());
  std::printf("config: %s, %zu trials\n\n", params.describe().c_str(), trials);

  support::TextTable table({"strategy", "runtime factor (mean)", "min", "max",
                            "sybils/trial", "leaves/trial"});
  for (const auto name : lb::strategy_names()) {
    sim::Params p = params;
    if (name == "churn") p.churn_rate = 0.01;
    const exp::Aggregate agg = exp::run_trials(p, name, trials, seed, &pool);
    table.add_row({std::string(name),
                   support::format_fixed(agg.runtime_factor.mean, 3),
                   support::format_fixed(agg.runtime_factor.min, 3),
                   support::format_fixed(agg.runtime_factor.max, 3),
                   support::format_fixed(agg.mean_sybils_created, 0),
                   support::format_fixed(agg.mean_leaves, 0)});
  }
  std::printf("%s\n", table.render().c_str());

  // Side-by-side workload distribution after 35 ticks, no strategy vs
  // random injection — the comparison the paper's Figure 8 draws.
  const auto none =
      exp::run_with_snapshots(params, "none", seed, {35});
  const auto random_injection =
      exp::run_with_snapshots(params, "random-injection", seed, {35});
  if (!none.snapshots.empty() && !random_injection.snapshots.empty()) {
    const auto left =
        stats::workload_histogram(none.snapshots[0].workloads, 12).bins();
    const auto right =
        stats::workload_histogram(random_injection.snapshots[0].workloads, 12)
            .bins();
    std::printf("workload distribution after 35 ticks:\n%s\n",
                viz::render_comparison(left, "no strategy", right,
                                       "random injection")
                    .c_str());
  }
  return 0;
}
