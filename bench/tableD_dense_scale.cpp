// tableD_dense_scale — the dense experiment lane: every paper strategy,
// multi-trial, under churn, at scale.
//
// This is what the nightly 1M smoke test grows into once the tick loop
// is parallel (ROADMAP: "dense experiments instead of a smoke test").
// Each (strategy, trial) cell builds a fresh world and runs a fixed
// churn horizon, recording load-balance outcomes at the horizon rather
// than runtime-to-completion — at nightly scale the interesting question
// is "how balanced is the ring while work is flowing", and a bounded
// horizon keeps the lane's wall time predictable across strategies.
//
// Env knobs: DHTLB_DENSE_NODES (default 10k; nightly sets 1M; read as
// the `nodes` Params field, so 1..4,000,000), DHTLB_TRIALS, DHTLB_SEED,
// DHTLB_THREADS (nightly sets 0 = all cores; outputs are thread-count
// independent so the committed baseline still gates values
// bit-for-bit).  The churn horizon is fixed at 100 ticks.
//
// Provisioning is streamed: the job arrives through a sim::TaskStream
// at a rate matched to capacity, so resident tasks track the backlog
// and the full 1M all-strategy grid fits a standard runner.
// Preallocating it would materialize 2*nodes*horizon keys at tick 0 —
// ~10 GiB at 1M nodes (EXPERIMENTS.md "Memory trajectory").
//
// Each strategy's wall time is printed only; its done_frac_mean record
// carries the peak RSS for the memory gate.
#include "lb/factory.hpp"
#include "repro_util.hpp"
#include "stats/descriptive.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::bench {

void tableD_dense_scale(Session& session) {
  const std::uint64_t horizon = 100;  // ticks every cell runs
  const std::uint64_t trials = session.trials();

  sim::Params p;
  p.churn_rate = 0.02;
  p.max_ticks = horizon;
  // Auto arrival window (= the ideal runtime): arrivals flow at exactly
  // the initial capacity, so the ring is under steady per-tick load for
  // the whole horizon while the resident backlog stays bounded — that
  // bound is what lets this lane run at 1M nodes inside a CI runner's
  // memory budget.
  p.provisioning = sim::TaskProvisioning::kStreamed;
  p.arrival_ticks = 0;
  try {
    p.set("nodes", support::env_string("DHTLB_DENSE_NODES", "10000"));
    // Twice the horizon's aggregate capacity: the ring is still under
    // load when we measure, so the balance metrics see live imbalance
    // rather than a drained ring.
    p.total_tasks = 2 * p.initial_nodes * horizon;
    p.validate();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("DHTLB_DENSE_NODES: ") +
                                e.what());
  }
  const std::size_t nodes = p.initial_nodes;

  std::printf("%zu nodes, %llu-tick horizon, streamed provisioning\n\n",
              nodes, static_cast<unsigned long long>(horizon));

  support::TextTable table({"strategy", "done frac", "gini", "stddev",
                            "joins+leaves", "wall ms"});

  // Every cell here churns, so "none" is the churn-only baseline and
  // "churn" would repeat it; the rest is the full paper + extension set.
  for (const lb::StrategyEntry& entry : lb::strategy_table()) {
    if (entry.name == "churn") continue;
    const std::string_view strategy = entry.name;
    const WallTimer strategy_timer;
    stats::RunningStats done_frac;
    stats::RunningStats gini;
    stats::RunningStats stddev;
    std::uint64_t churn_events = 0;

    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      sim::Engine engine(p, support::mix_seed(session.seed(), trial),
                         lb::make_strategy(strategy));
      engine.set_audit(false);
      engine.set_threads(session.threads());
      // Hold the horizon even if the task pool drains: the lane measures
      // the ring under sustained churn, not time-to-completion.
      engine.set_pre_tick_hook(
          [horizon](std::uint64_t tick) { return tick <= horizon; });
      const sim::RunResult result = engine.run();

      const sim::World& world = engine.world();
      const std::vector<std::uint64_t> loads = world.alive_workloads();
      stats::RunningStats spread;
      for (const std::uint64_t load : loads) {
        spread.add(static_cast<double>(load));
      }
      const double total = static_cast<double>(world.total_tasks());
      done_frac.add(
          total == 0.0
              ? 1.0
              : (total - static_cast<double>(world.remaining_tasks())) /
                    total);
      gini.add(stats::gini(loads));
      stddev.add(spread.stddev());
      churn_events += result.joins + result.leaves;
    }

    const double wall = strategy_timer.elapsed_ms();
    const std::uint64_t rss = Telemetry::current_peak_rss_bytes();
    const std::string cell =
        "s=" + std::string(strategy) + "/n=" + std::to_string(nodes);
    session.record(cell, "done_frac_mean", done_frac.mean(), trials, rss);
    session.record(cell, "gini_mean", gini.mean(), trials);
    session.record(cell, "workload_stddev_mean", stddev.mean(), trials);
    session.record(cell, "churn_events", static_cast<double>(churn_events),
                   trials);

    table.add_row({std::string(strategy),
                   support::format_fixed(done_frac.mean(), 4),
                   support::format_fixed(gini.mean(), 4),
                   support::format_fixed(stddev.mean(), 2),
                   std::to_string(churn_events),
                   support::format_fixed(wall, 1)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
