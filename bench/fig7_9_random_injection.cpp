// Reproduces Figures 7-9: Random Injection vs no strategy at ticks 5 and
// 35 (Figures 7-8), and Random Injection vs churn 0.01 at tick 35
// (Figure 9), on the 1000-node / 100,000-task network.
//
// Expected shape (paper): by tick 5 a single balancing round already
// beats the initial distribution; by tick 35 the injected network has
// far fewer idle nodes than either alternative.
#include "repro_util.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void fig7_9_random_injection(Session& session) {
  const auto params = paper_defaults(1000, 100'000);
  sim::Params churned = params;
  churned.churn_rate = 0.01;
  const auto seed = session.seed();

  const auto none = exp::run_with_snapshots(params, "none", seed, {5, 35});
  const auto inj =
      exp::run_with_snapshots(params, "random-injection", seed, {5, 35});
  const auto churn = exp::run_with_snapshots(churned, "churn", seed, {35});

  auto compare = [](const char* title,
                    const std::vector<std::uint64_t>& left,
                    const char* left_label,
                    const std::vector<std::uint64_t>& right,
                    const char* right_label) {
    print_histogram_pair(title, left, left_label, right, right_label);
    std::printf("idle: %s %.3f vs %s %.3f | gini: %.3f vs %.3f\n\n",
                left_label, stats::idle_fraction(left), right_label,
                stats::idle_fraction(right), stats::gini(left),
                stats::gini(right));
  };

  compare("Figure 7 (tick 5)", none.snapshots[0].workloads, "no strategy",
          inj.snapshots[0].workloads, "random injection");
  compare("Figure 8 (tick 35)", none.snapshots[1].workloads, "no strategy",
          inj.snapshots[1].workloads, "random injection");
  compare("Figure 9 (tick 35)", churn.snapshots[0].workloads, "churn 0.01",
          inj.snapshots[1].workloads, "random injection");

  std::printf("runtime factors: none %.2f | churn %.2f | random injection "
              "%.2f (paper: never > 1.7, best 1.36)\n",
              none.runtime_factor, churn.runtime_factor,
              inj.runtime_factor);
  session.record("run/none", "runtime_factor", none.runtime_factor, 1);
  session.record("run/churn", "runtime_factor", churn.runtime_factor, 1);
  session.record("run/random-injection", "runtime_factor",
                 inj.runtime_factor, 1);
  session.record("tick35/none", "idle_fraction",
                 stats::idle_fraction(none.snapshots[1].workloads), 1);
  session.record("tick35/random-injection", "idle_fraction",
                 stats::idle_fraction(inj.snapshots[1].workloads), 1);
}

}  // namespace dhtlb::bench
