// Reproduces Figures 13-14: the Invitation strategy vs no strategy
// (Figure 13) and vs smart neighbor injection (Figure 14) at tick 35 on
// the 1000-node / 100,000-task network.
//
// Expected shape (paper): invitation clearly beats no strategy (max load
// ~500 vs ~650); against smart neighbor, invitation leaves fewer
// low-workload nodes and more mid/high-workload nodes — while sending
// far fewer messages, because it reacts instead of probing.
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void fig13_14_invitation(Session& session) {
  const auto params = paper_defaults(1000, 100'000);
  const auto seed = session.seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {35});
  const auto inv = exp::run_with_snapshots(params, "invitation", seed, {35});
  const auto smart = exp::run_with_snapshots(params,
                                             "smart-neighbor-injection",
                                             seed, {35});

  const auto& ln = none.snapshots[0].workloads;
  const auto& li = inv.snapshots[0].workloads;
  const auto& ls = smart.snapshots[0].workloads;

  print_histogram_pair("Figure 13: invitation vs no strategy", ln,
                       "no strategy", li, "invitation");
  std::printf("max workload: none %llu vs invitation %llu "
              "(paper: ~650 vs ~500)\n\n",
              static_cast<unsigned long long>(max_of(ln)),
              static_cast<unsigned long long>(max_of(li)));

  print_histogram_pair("Figure 14: invitation vs smart neighbor", ls,
                       "smart neighbor", li, "invitation");
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
}

}  // namespace dhtlb::bench
