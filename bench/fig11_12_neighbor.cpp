// Reproduces Figures 11-12: Neighbor Injection (estimating) and Smart
// Neighbor Injection vs no strategy at tick 35 on the 1000-node /
// 100,000-task network.
//
// Expected shape (paper): the estimating variant shifts the histogram
// left — a lower maximum workload (~450 vs ~650 at tick 35) but MORE
// idle nodes than no strategy has busy low-load nodes; the smart variant
// keeps the lower maximum while idling far fewer nodes.
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void fig11_12_neighbor(Session& session) {
  const auto params = paper_defaults(1000, 100'000);
  const auto seed = session.seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {35});
  const auto est =
      exp::run_with_snapshots(params, "neighbor-injection", seed, {35});
  const auto smart = exp::run_with_snapshots(params,
                                             "smart-neighbor-injection",
                                             seed, {35});

  const auto& ln = none.snapshots[0].workloads;
  const auto& le = est.snapshots[0].workloads;
  const auto& ls = smart.snapshots[0].workloads;

  print_histogram_pair("Figure 11: estimating neighbor injection", ln,
                       "no strategy", le, "neighbor injection");
  std::printf("max workload: none %llu vs neighbor %llu "
              "(paper: ~650 vs ~450)\n\n",
              static_cast<unsigned long long>(max_of(ln)),
              static_cast<unsigned long long>(max_of(le)));

  print_histogram_pair("Figure 12: smart neighbor injection", ln,
                       "no strategy", ls, "smart neighbor");
  std::printf("idle fractions: none %.3f | estimating %.3f | smart %.3f\n",
              stats::idle_fraction(ln), stats::idle_fraction(le),
              stats::idle_fraction(ls));
  std::printf("(paper: smart idles significantly fewer nodes than "
              "estimating)\n\n");
  session.record("run/none", "runtime_factor", none.runtime_factor, 1);
  session.record("run/neighbor-injection", "runtime_factor",
                 est.runtime_factor, 1);
  session.record("run/smart-neighbor-injection", "runtime_factor",
                 smart.runtime_factor, 1);
  session.record("tick35/none", "max_workload",
                 static_cast<double>(max_of(ln)), 1);
  session.record("tick35/neighbor-injection", "max_workload",
                 static_cast<double>(max_of(le)), 1);
  session.record("tick35/smart-neighbor-injection", "idle_fraction",
                 stats::idle_fraction(ls), 1);
  std::printf("runtime factors: none %.2f | neighbor %.2f | smart %.2f\n",
              none.runtime_factor, est.runtime_factor,
              smart.runtime_factor);
  std::printf("message-cost proxies: estimating made %llu placements with "
              "0 queries;\nsmart made %llu placements paying %llu workload "
              "queries (paper's traffic trade-off).\n",
              static_cast<unsigned long long>(
                  est.strategy_counters.sybils_created),
              static_cast<unsigned long long>(
                  smart.strategy_counters.sybils_created),
              static_cast<unsigned long long>(
                  smart.strategy_counters.workload_queries));
}

}  // namespace dhtlb::bench
