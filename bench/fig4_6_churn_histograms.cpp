// Reproduces Figures 4-6: workload-distribution histograms of two
// networks with identical starting configurations — one using 0.01
// induced churn, one using no strategy — captured at ticks 0, 5 and 35.
//
// Expected shape (paper): identical at tick 0; by tick 5 the churned
// network has fewer low-workload nodes; by tick 35 the difference is
// pronounced (far fewer idlers under churn).
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void fig4_6_churn_histograms(Session& session) {
  const auto params = paper_defaults(1000, 100'000);
  sim::Params churned = params;
  churned.churn_rate = 0.01;

  const auto seed = session.seed();
  const auto none = exp::run_with_snapshots(params, "none", seed, {0, 5, 35});
  const auto churn = exp::run_with_snapshots(churned, "churn", seed,
                                             {0, 5, 35});

  const char* fig_names[] = {"Figure 4 (tick 0 — initial)",
                             "Figure 5 (beginning of tick 5)",
                             "Figure 6 (tick 35)"};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& ln = none.snapshots[i].workloads;
    const auto& lc = churn.snapshots[i].workloads;
    print_histogram_pair(fig_names[i], ln, "no strategy", lc, "churn 0.01");
    std::printf("idle fraction: none %.3f vs churn %.3f | gini: none %.3f "
                "vs churn %.3f\n\n",
                stats::idle_fraction(ln), stats::idle_fraction(lc),
                stats::gini(ln), stats::gini(lc));
    const std::string tick = "tick" + std::to_string(none.snapshots[i].tick);
    session.record(tick + "/none", "idle_fraction", stats::idle_fraction(ln),
                   1);
    session.record(tick + "/churn", "idle_fraction", stats::idle_fraction(lc),
                   1);
    session.record(tick + "/none", "gini", stats::gini(ln), 1);
    session.record(tick + "/churn", "gini", stats::gini(lc), 1);
  }
  session.record("run/none", "runtime_factor", none.runtime_factor, 1);
  session.record("run/churn", "runtime_factor", churn.runtime_factor, 1);
  std::printf("runtime: none %llu ticks (factor %.2f), churn %llu ticks "
              "(factor %.2f)\n",
              static_cast<unsigned long long>(none.ticks),
              none.runtime_factor,
              static_cast<unsigned long long>(churn.ticks),
              churn.runtime_factor);
}

}  // namespace dhtlb::bench
