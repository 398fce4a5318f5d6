// Reproduces Figures 13-14: the Invitation strategy vs no strategy
// (Figure 13) and vs smart neighbor injection (Figure 14) at tick 35 on
// the 1000-node / 100,000-task network.
//
// Expected shape (paper): invitation clearly beats no strategy (max load
// ~500 vs ~650); against smart neighbor, invitation leaves fewer
// low-workload nodes and more mid/high-workload nodes — while sending
// far fewer messages, because it reacts instead of probing.
#include <cstdio>

#include "exp/experiment.hpp"
#include "repro_util.hpp"
#include "stats/histogram.hpp"
#include "stats/load_metrics.hpp"
#include "support/env.hpp"
#include "viz/ascii_hist.hpp"

int main() {
  using namespace dhtlb;

  bench::Session session("fig13_14_invitation", "Figures 13-14",
                         "invitation at tick 35", 1);

  const auto params = bench::paper_defaults(1000, 100'000);
  const auto seed = support::env_seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {35});
  const auto inv = exp::run_with_snapshots(params, "invitation", seed, {35});
  const auto smart = exp::run_with_snapshots(params,
                                             "smart-neighbor-injection",
                                             seed, {35});

  auto max_of = [](const std::vector<std::uint64_t>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  const auto& ln = none.snapshots[0].workloads;
  const auto& li = inv.snapshots[0].workloads;
  const auto& ls = smart.snapshots[0].workloads;

  std::printf("--- Figure 13: invitation vs no strategy ---\n%s",
              viz::render_comparison(
                  stats::workload_histogram(ln, 12).bins(), "no strategy",
                  stats::workload_histogram(li, 12).bins(), "invitation")
                  .c_str());
  std::printf("max workload: none %llu vs invitation %llu "
              "(paper: ~650 vs ~500)\n\n",
              static_cast<unsigned long long>(max_of(ln)),
              static_cast<unsigned long long>(max_of(li)));

  std::printf("--- Figure 14: invitation vs smart neighbor ---\n%s",
              viz::render_comparison(
                  stats::workload_histogram(ls, 12).bins(), "smart neighbor",
                  stats::workload_histogram(li, 12).bins(), "invitation")
                  .c_str());
  std::printf("gini: smart %.3f vs invitation %.3f (paper: invitation "
              "load-balances better)\n\n",
              stats::gini(ls), stats::gini(li));

  session.record("run/none", "runtime_factor", none.runtime_factor, 1);
  session.record("run/smart-neighbor-injection", "runtime_factor",
                 smart.runtime_factor, 1);
  session.record("run/invitation", "runtime_factor", inv.runtime_factor, 1);
  session.record("tick35/invitation", "max_workload",
                 static_cast<double>(max_of(li)), 1);
  session.record("tick35/invitation", "gini", stats::gini(li), 1);
  session.record("tick35/smart-neighbor-injection", "gini", stats::gini(ls),
                 1);
  std::printf("runtime factors: none %.2f | smart %.2f | invitation %.2f\n",
              none.runtime_factor, smart.runtime_factor,
              inv.runtime_factor);
  std::printf(
      "traffic proxies: smart paid %llu workload queries + %llu placements;\n"
      "invitation paid %llu announcements (%llu accepted), %llu placements\n"
      "— the reactive strategy's bandwidth advantage (§VI-D).\n",
      static_cast<unsigned long long>(
          smart.strategy_counters.workload_queries),
      static_cast<unsigned long long>(smart.strategy_counters.sybils_created),
      static_cast<unsigned long long>(
          inv.strategy_counters.invitations_sent),
      static_cast<unsigned long long>(
          inv.strategy_counters.invitations_accepted),
      static_cast<unsigned long long>(inv.strategy_counters.sybils_created));
  return 0;
}
