// Reproduces the §VI-B.1 ablations ("Effects of Other Variables") plus
// the design-choice ablations DESIGN.md calls out:
//   * sybilThreshold: helps homogeneous low-ratio networks (~-0.1, and
//     ~-0.2 under strength consumption); no effect at 1000 tasks/node or
//     in heterogeneous networks
//   * churn layered under random injection: no positive impact; at 0.01
//     it *costs* ~0.06
//   * maxSybils 5 vs 10 in heterogeneous networks: bigger disparity is
//     worse (+0.3..1 depending on ratio); no effect homogeneous
//   * mark_failed_ranges (the paper's §IV-C suggestion): measured here
#include "repro_util.hpp"

namespace dhtlb::bench {

void tableA_ablations(Session& session) {
  support::TextTable table({"ablation", "baseline", "variant", "delta",
                            "paper says"});

  auto ablate = [&](const char* label, sim::Params base_p,
                    sim::Params variant_p, const char* strategy,
                    const char* note) {
    const double base =
        session.mean_factor(base_p, strategy, std::string(label) + "/base");
    const double variant = session.mean_factor(
        variant_p, strategy, std::string(label) + "/variant");
    session.record(label, "ablation_delta", variant - base);
    table.add_row({label, support::format_fixed(base, 3),
                   support::format_fixed(variant, 3),
                   support::format_fixed(variant - base, 3), note});
  };

  // sybilThreshold on low-ratio homogeneous networks (100 tasks/node).
  {
    sim::Params base = paper_defaults(1000, 100'000);
    sim::Params thresh = base;
    thresh.sybil_threshold = 5;
    ablate("threshold 0->5, 1e3n/1e5t hom", base, thresh, "random-injection",
           "-0.1 or better");
  }
  // sybilThreshold at high ratio: no effect.
  {
    sim::Params base = paper_defaults(1000, 1'000'000);
    sim::Params thresh = base;
    thresh.sybil_threshold = 5;
    ablate("threshold 0->5, 1e3n/1e6t hom", base, thresh, "random-injection",
           "no effect");
  }
  // sybilThreshold in heterogeneous networks: no effect.
  {
    sim::Params base = paper_defaults(1000, 100'000);
    base.heterogeneous = true;
    sim::Params thresh = base;
    thresh.sybil_threshold = 5;
    ablate("threshold 0->5, het", base, thresh, "random-injection",
           "no discernible effect");
  }
  // Churn layered under random injection.
  {
    sim::Params base = paper_defaults(1000, 100'000);
    sim::Params churned = base;
    churned.churn_rate = 0.01;
    ablate("churn 0->0.01 under injection", base, churned,
           "random-injection", "+0.06 (no positive impact)");
  }
  // maxSybils in heterogeneous networks, low and high ratio.
  {
    sim::Params base = paper_defaults(1000, 100'000);
    base.heterogeneous = true;
    base.work_measure = sim::WorkMeasure::kStrengthPerTick;
    sim::Params wide = base;
    wide.max_sybils = 10;
    ablate("het maxSybils 5->10, 100 t/n", base, wide, "random-injection",
           "+~1 (disparity hurts)");
  }
  {
    sim::Params base = paper_defaults(1000, 1'000'000);
    base.heterogeneous = true;
    base.work_measure = sim::WorkMeasure::kStrengthPerTick;
    sim::Params wide = base;
    wide.max_sybils = 10;
    ablate("het maxSybils 5->10, 1000 t/n", base, wide, "random-injection",
           "+0.3..0.4");
  }
  // maxSybils in homogeneous networks: no noticeable effect (footnote 1).
  {
    sim::Params base = paper_defaults(1000, 100'000);
    sim::Params wide = base;
    wide.max_sybils = 10;
    ablate("hom maxSybils 5->10", base, wide, "random-injection",
           "no benefit beyond 10");
  }
  // mark_failed_ranges for neighbor injection (§IV-C suggestion).
  {
    sim::Params base = paper_defaults(1000, 100'000);
    sim::Params marked = base;
    marked.mark_failed_ranges = true;
    ablate("neighbor: mark failed ranges", base, marked,
           "neighbor-injection", "suggested, untested in paper");
  }

  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
