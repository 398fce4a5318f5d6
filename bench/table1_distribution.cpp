// Reproduces Table I: "The median distribution of tasks (or files) among
// nodes" — median per-node workload and its standard deviation for nine
// (nodes, tasks) combinations, averaged over trials.
//
// Paper values (100 trials): e.g. (1000, 1e6) -> median 692.300, sigma
// 996.982; medians sit at ~ln2 x mean because SHA-1 arcs are
// ~exponentially distributed.
#include "repro_util.hpp"
#include "stats/descriptive.hpp"

namespace dhtlb::bench {

void table1_distribution(Session& session) {
  const std::size_t trials = session.trials();

  struct Row {
    std::size_t nodes;
    std::uint64_t tasks;
    double paper_median;
    double paper_sigma;
  };
  const std::vector<Row> rows = {
      {1000, 100'000, 69.410, 137.27},    {1000, 500'000, 346.570, 499.169},
      {1000, 1'000'000, 692.300, 996.982}, {5000, 100'000, 13.810, 20.477},
      {5000, 500'000, 69.280, 100.344},    {5000, 1'000'000, 138.360, 200.564},
      {10000, 100'000, 7.000, 10.492},     {10000, 500'000, 34.550, 50.366},
      {10000, 1'000'000, 69.180, 100.319}};

  support::TextTable table({"Nodes", "Tasks", "Median (ours)", "Median (paper)",
                            "sigma (ours)", "sigma (paper)"});

  for (const Row& row : rows) {
    std::vector<double> medians(trials), sigmas(trials);
    session.pool().parallel_for(trials, [&](std::size_t t) {
      const auto loads = exp::initial_workloads(
          row.nodes, row.tasks, support::mix_seed(session.seed(), t));
      std::vector<double> d(loads.begin(), loads.end());
      const auto s = stats::summarize(d);
      medians[t] = s.median;
      sigmas[t] = s.stddev;
    });
    const double mean_median = stats::summarize(medians).mean;
    const double mean_sigma = stats::summarize(sigmas).mean;
    const std::string cell = support::format_count(row.nodes) + "n/" +
                             support::format_count(row.tasks) + "t";
    session.record(cell, "median_workload_mean", mean_median);
    session.record(cell, "workload_sigma_mean", mean_sigma);
    table.add_row({support::format_count(row.nodes),
                   support::format_count(row.tasks),
                   support::format_fixed(mean_median, 3),
                   support::format_fixed(row.paper_median, 3),
                   support::format_fixed(mean_sigma, 3),
                   support::format_fixed(row.paper_sigma, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape check: medians ~= ln(2) x mean workload (exponential arcs);\n"
      "sigma ~= mean workload.  Both should track the paper closely.\n");
}

}  // namespace dhtlb::bench
