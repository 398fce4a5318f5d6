// Reproduces Figure 10: workload distribution of HETEROGENEOUS networks
// after 35 ticks, random injection vs no strategy.  Node strengths are
// drawn U{1..maxSybils}; strength caps each node's Sybil count.
//
// Expected shape (paper): random injection still yields a clearly better
// distribution, though the runtime gains are smaller than in the
// homogeneous case.
#include <cstdio>

#include "exp/experiment.hpp"
#include "repro_util.hpp"
#include "stats/histogram.hpp"
#include "stats/load_metrics.hpp"
#include "support/env.hpp"
#include "viz/ascii_hist.hpp"

int main() {
  using namespace dhtlb;

  bench::Session session("fig10_heterogeneous", "Figure 10",
                         "heterogeneous networks at tick 35", 6);
  const std::size_t trials = session.trials();

  sim::Params params = bench::paper_defaults(1000, 100'000);
  params.heterogeneous = true;
  const auto seed = support::env_seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {35});
  const auto inj =
      exp::run_with_snapshots(params, "random-injection", seed, {35});

  const auto& ln = none.snapshots[0].workloads;
  const auto& li = inj.snapshots[0].workloads;
  std::printf("%s", viz::render_comparison(
                        stats::workload_histogram(ln, 12).bins(),
                        "no strategy (het)",
                        stats::workload_histogram(li, 12).bins(),
                        "random injection (het)")
                        .c_str());
  std::printf("\nidle: none %.3f vs injection %.3f | gini: %.3f vs %.3f\n",
              stats::idle_fraction(ln), stats::idle_fraction(li),
              stats::gini(ln), stats::gini(li));
  session.record("tick35/none", "gini", stats::gini(ln), 1);
  session.record("tick35/random-injection", "gini", stats::gini(li), 1);

  // Multi-trial runtime comparison: het gains exist but are smaller than
  // hom gains (§VI-B).
  sim::Params hom = bench::paper_defaults(1000, 100'000);
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
  return 0;
}
