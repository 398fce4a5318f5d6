// Reproduces the §VI-C Neighbor Injection numbers quoted in the text:
//   * base factor 5.033 on 1000 n / 1e5 t (2.4 below no strategy)
//   * base factor 3.006 on 100 n / 1e4 t (2 below no strategy)
//   * smart (query) variant improves the mean factor by ~1.2
//   * larger numSuccessors lowers the factor by ~0.3
//   * heterogeneous + strength consumption is WORSE, exacerbated by a
//     higher maxSybils
#include "repro_util.hpp"

namespace dhtlb::bench {

void tableN_neighbor(Session& session) {
  support::TextTable table({"configuration", "strategy", "factor (ours)",
                            "paper says"});

  auto row = [&](sim::Params p, const char* strategy, const char* cfg,
                 const char* note) {
    const double f =
        session.mean_factor(p, strategy, std::string(cfg) + "/" + strategy);
    table.add_row({cfg, strategy, support::format_fixed(f, 3), note});
    return f;
  };

  // Base vs no strategy, both network scales.
  sim::Params big = paper_defaults(1000, 100'000);
  const double big_none = row(big, "none", "1000 n / 1e5 t", "7.476 base");
  const double big_est =
      row(big, "neighbor-injection", "1000 n / 1e5 t", "5.033 (-2.4)");
  sim::Params small = paper_defaults(100, 10'000);
  const double small_none = row(small, "none", "100 n / 1e4 t", "~5.0 base");
  const double small_est =
      row(small, "neighbor-injection", "100 n / 1e4 t", "3.006 (-2.0)");

  // Smart variant.
  const double big_smart = row(big, "smart-neighbor-injection",
                               "1000 n / 1e5 t", "estimate - ~1.2");

  // numSuccessors sweep.
  sim::Params more_succ = big;
  more_succ.num_successors = 10;
  const double est10 = row(more_succ, "neighbor-injection",
                           "1000 n / 1e5 t, succ=10", "~0.3 lower than succ=5");

  // Heterogeneous with strength consumption, maxSybils 5 vs 10.
  sim::Params het5 = big;
  het5.heterogeneous = true;
  het5.work_measure = sim::WorkMeasure::kStrengthPerTick;
  const double h5 = row(het5, "neighbor-injection",
                        "het strength/tick, maxSybils=5", "worse than hom");
  sim::Params het10 = het5;
  het10.max_sybils = 10;
  const double h10 = row(het10, "neighbor-injection",
                         "het strength/tick, maxSybils=10",
                         "worse still (greater disparity)");

  std::printf("%s\n", table.render().c_str());
  std::printf("derived shape checks:\n");
  std::printf("  estimate improves on none: %.3f and %.3f (paper: 2.4, 2.0)\n",
              big_none - big_est, small_none - small_est);
  std::printf("  smart improves on estimate by %.3f (paper: ~1.2)\n",
              big_est - big_smart);
  std::printf("  successors 10 vs 5 changes factor by %.3f (paper: ~-0.3)\n",
              est10 - big_est);
  std::printf("  het maxSybils 10 vs 5: %+.3f (paper: positive => worse)\n",
              h10 - h5);
}

}  // namespace dhtlb::bench
