// Reproduces Figure 10: workload distribution of HETEROGENEOUS networks
// after 35 ticks, random injection vs no strategy.  Node strengths are
// drawn U{1..maxSybils}; strength caps each node's Sybil count.
//
// Expected shape (paper): random injection still yields a clearly better
// distribution, though the runtime gains are smaller than in the
// homogeneous case.
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void fig10_heterogeneous(Session& session) {
  const std::size_t trials = session.trials();

  sim::Params params = paper_defaults(1000, 100'000);
  params.heterogeneous = true;
  const auto seed = session.seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {35});
  const auto inj =
      exp::run_with_snapshots(params, "random-injection", seed, {35});

  const auto& ln = none.snapshots[0].workloads;
  const auto& li = inj.snapshots[0].workloads;
  print_histogram_pair("Figure 10 (tick 35)", ln, "no strategy (het)", li,
                       "random injection (het)");
  std::printf("\nidle: none %.3f vs injection %.3f | gini: %.3f vs %.3f\n",
              stats::idle_fraction(ln), stats::idle_fraction(li),
              stats::gini(ln), stats::gini(li));
  session.record("tick35/none", "gini", stats::gini(ln), 1);
  session.record("tick35/random-injection", "gini", stats::gini(li), 1);

  // Multi-trial runtime comparison: het gains exist but are smaller than
  // hom gains (§VI-B).
  sim::Params hom = paper_defaults(1000, 100'000);
  const double het_inj =
      session.mean_factor(params, "random-injection", "het/random-injection");
  const double het_none = session.mean_factor(params, "none", "het/none");
  const double hom_inj =
      session.mean_factor(hom, "random-injection", "hom/random-injection");
  const double hom_none = session.mean_factor(hom, "none", "hom/none");
  std::printf("\nmean runtime factors (%zu trials):\n", trials);
  std::printf("  homogeneous:   none %.3f -> injection %.3f (gain %.3f)\n",
              hom_none, hom_inj, hom_none - hom_inj);
  std::printf("  heterogeneous: none %.3f -> injection %.3f (gain %.3f)\n",
              het_none, het_inj, het_none - het_inj);
  std::printf("shape check (paper): both gains positive; heterogeneous "
              "improvement is the weaker of the two.\n");
}

}  // namespace dhtlb::bench
