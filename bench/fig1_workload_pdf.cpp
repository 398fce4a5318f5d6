// Reproduces Figure 1: the probability distribution of per-node workload
// in a DHT with 1000 nodes and 1,000,000 tasks, with the median marked.
// The paper's figure uses a log-scaled workload axis: most nodes hold
// fewer than 1000 tasks while a few unlucky ones exceed 10,000.
#include "repro_util.hpp"
#include "stats/descriptive.hpp"

namespace dhtlb::bench {

void fig1_workload_pdf(Session& session) {
  const auto loads =
      exp::initial_workloads(1000, 1'000'000, session.seed());
  std::vector<double> d(loads.begin(), loads.end());
  const auto summary = stats::summarize(d);
  session.record("1000n/1e6t", "median_workload", summary.median, 1);
  session.record("1000n/1e6t", "mean_workload", summary.mean, 1);
  session.record("1000n/1e6t", "max_workload", summary.max, 1);

  // Log-spaced bins from 10 to ~20000 tasks, plus an underflow bin.
  stats::LogHistogram hist(10.0, 20'000.0, 22);
  for (const auto v : loads) hist.add_u64(v);

  viz::HistRenderOptions opts;
  opts.title = "P(workload) — log-spaced bins (paper Figure 1)";
  opts.bar_width = 50;
  std::printf("%s\n", viz::render_histogram(hist.bins(), opts).c_str());

  support::TextTable table({"statistic", "ours", "paper"});
  table.add_row({"median workload", support::format_fixed(summary.median, 1),
                 "~692 (Table I)"});
  table.add_row({"mean workload", support::format_fixed(summary.mean, 1),
                 "1000 (tasks/nodes)"});
  table.add_row({"max workload", support::format_fixed(summary.max, 0),
                 ">10,000 (\"a few unfortunate nodes\")"});
  std::printf("%s\n", table.render().c_str());
  std::printf("vertical-line check: median (%0.0f) < mean (%0.0f), i.e. over\n"
              "half the network holds less than the fair share.\n",
              summary.median, summary.mean);
}

}  // namespace dhtlb::bench
