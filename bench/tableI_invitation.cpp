// Reproduces the §VI-D Invitation numbers quoted in the text:
//   * base factor 3.749 on 100 n / 1e5 t vs 5.673 on 1000 n / 1e5 t
//     (impact "closely tied to network size")
//   * heterogeneous + strength consumption is worse (paper: 6.097 on
//     1000 n / 1e5 t)
//   * invitation balances better than smart neighbor while sending far
//     fewer messages
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void tableI_invitation(Session& session) {
  const std::size_t trials = session.trials();

  support::TextTable table({"configuration", "factor (ours)", "paper says"});

  auto row = [&](sim::Params p, const char* cfg, const char* note) {
    const auto agg = exp::run_trials(p, "invitation", trials,
                                     session.seed(), &session.pool());
    session.record(cfg, "runtime_factor_mean", agg.runtime_factor.mean);
    table.add_row({cfg, support::format_fixed(agg.runtime_factor.mean, 3),
                   note});
    return agg;
  };

  const auto small = row(paper_defaults(100, 100'000),
                         "100 n / 1e5 t", "3.749 base");
  const auto large = row(paper_defaults(1000, 100'000),
                         "1000 n / 1e5 t", "5.673 base");
  sim::Params het = paper_defaults(1000, 100'000);
  het.heterogeneous = true;
  het.work_measure = sim::WorkMeasure::kStrengthPerTick;
  row(het, "het, strength/tick", "6.097 (worse than hom)");

  std::printf("%s\n", table.render().c_str());

  // Balance-vs-traffic comparison against smart neighbor (single run,
  // matching Figure 14's setting).
  const auto params = paper_defaults(1000, 100'000);
  const auto seed = session.seed();
  const auto inv = exp::run_with_snapshots(params, "invitation", seed, {35});
  const auto smart = exp::run_with_snapshots(params,
                                             "smart-neighbor-injection",
                                             seed, {35});
  const double gini_inv = stats::gini(inv.snapshots[0].workloads);
  const double gini_smart = stats::gini(smart.snapshots[0].workloads);
  session.record("tick35/invitation", "gini", gini_inv, 1);
  session.record("tick35/smart-neighbor", "gini", gini_smart, 1);
  session.record("tick35/invitation", "messages",
                 static_cast<double>(inv.strategy_counters.invitations_sent +
                                     inv.strategy_counters.sybils_created),
                 1);
  session.record("tick35/smart-neighbor", "messages",
                 static_cast<double>(smart.strategy_counters.workload_queries +
                                     smart.strategy_counters.sybils_created),
                 1);
  std::printf("tick-35 gini: invitation %.3f vs smart %.3f "
              "(paper: invitation balances better)\n",
              gini_inv, gini_smart);
  std::printf("messages: invitation %llu announcements + %llu placements vs "
              "smart %llu queries + %llu placements\n",
              static_cast<unsigned long long>(
                  inv.strategy_counters.invitations_sent),
              static_cast<unsigned long long>(
                  inv.strategy_counters.sybils_created),
              static_cast<unsigned long long>(
                  smart.strategy_counters.workload_queries),
              static_cast<unsigned long long>(
                  smart.strategy_counters.sybils_created));
  std::printf("\nshape note: our invitation implements the paper's stated "
              "mechanism\n(threshold announce + least-loaded predecessor "
              "splits the heavy arc) and\nbalances more aggressively than "
              "the paper's reported factors; the\nnetwork-size dependence "
              "(smaller %.3f vs larger %.3f) is the shape check.\n",
              small.runtime_factor.mean, large.runtime_factor.mean);
}

}  // namespace dhtlb::bench
