// dhtlb_sim — the general-purpose command-line driver: run any paper (or
// extension) configuration without writing C++, with multi-trial
// aggregation, workload snapshots, and CSV export.
//
// Examples:
//   dhtlb_sim --strategy random-injection --nodes 1000 --tasks 100000
//   dhtlb_sim --strategy churn --churn 0.01 --trials 20
//   dhtlb_sim --strategy invitation --het --work-measure strength
//             --snapshots 0,5,35 --csv results/invite   (one line)
//   dhtlb_sim --list-strategies
#include <cstdio>
#include <string>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sink_files.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace dhtlb;

  support::CliParser cli;
  cli.add_flag("strategy", "name", "random-injection",
               "balancing strategy (see --list-strategies)");
  cli.add_flag("nodes", "n", "1000", "initial network size");
  cli.add_flag("tasks", "n", "100000", "job size in tasks");
  cli.add_flag("churn", "rate", "0", "per-tick leave/join probability");
  cli.add_flag("het", "", "", "heterogeneous strengths U{1..max-sybils}");
  cli.add_flag("work-measure", "one|strength", "one",
               "tasks consumed per tick");
  cli.add_flag("threshold", "tasks", "0", "sybilThreshold");
  cli.add_flag("successors", "k", "5", "successor/predecessor list size");
  cli.add_flag("max-sybils", "k", "5", "Sybil cap / strength ceiling");
  cli.add_flag("mark-failed-ranges", "", "",
               "neighbor injection: skip arcs that yielded nothing");
  cli.add_flag("trials", "n", "1", "independent trials to aggregate");
  cli.add_flag("seed", "s", "", "base seed (default: DHTLB_SEED)");
  cli.add_flag("snapshots", "t1,t2,...", "",
               "capture workload snapshots at these ticks (1 trial)");
  cli.add_flag("csv", "prefix", "",
               "write <prefix>_summary.csv (+ per-snapshot CSVs)");
  cli.add_flag("trace", "file", "",
               "write a Chrome trace_event JSON of one extra trial at the "
               "base seed");
  cli.add_flag("metrics", "file", "",
               "write per-tick metrics JSONL of the same extra trial");
  cli.add_flag("list-strategies", "", "", "print strategy names and exit");
  cli.add_flag("help", "", "", "show this help");

  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.get_bool("help")) {
    std::printf("%s", cli.help("dhtlb_sim",
                               "Simulate autonomous DHT load balancing "
                               "(Rosen et al. 2021 reproduction).")
                          .c_str());
    return 0;
  }
  if (cli.get_bool("list-strategies")) {
    std::printf("paper strategies:\n");
    for (const auto name : lb::strategy_names()) {
      std::printf("  %s\n", std::string(name).c_str());
    }
    std::printf("extensions (SS VII future work):\n");
    for (const auto name : lb::extension_strategy_names()) {
      std::printf("  %s\n", std::string(name).c_str());
    }
    return 0;
  }

  sim::Params params;
  params.initial_nodes = cli.get_u64("nodes");
  params.total_tasks = cli.get_u64("tasks");
  params.churn_rate = cli.get_double("churn");
  params.heterogeneous = cli.get_bool("het");
  params.work_measure = cli.get("work-measure") == "strength"
                            ? sim::WorkMeasure::kStrengthPerTick
                            : sim::WorkMeasure::kOneTaskPerTick;
  params.sybil_threshold = cli.get_u64("threshold");
  params.num_successors = cli.get_u64("successors");
  params.max_sybils = static_cast<unsigned>(cli.get_u64("max-sybils"));
  params.mark_failed_ranges = cli.get_bool("mark-failed-ranges");

  const std::string strategy = cli.get("strategy");
  const std::uint64_t seed =
      cli.has("seed") ? cli.get_u64("seed") : support::env_seed();
  const std::size_t trials = cli.get_u64("trials");
  const auto snapshot_ticks = cli.get_u64_list("snapshots");

  try {
    params.validate();
    (void)lb::make_strategy(strategy);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("config: %s\nstrategy: %s, %zu trial(s), seed %llu\n\n",
              params.describe().c_str(), strategy.c_str(), trials,
              static_cast<unsigned long long>(seed));

  support::ThreadPool pool(support::env_threads());
  const exp::Aggregate agg =
      exp::run_trials(params, strategy, trials, seed, &pool);

  // Observability for plain configs: one dedicated single trial at the
  // base seed, instrumented.  Kept separate from the aggregate trials so
  // multi-threaded trial scheduling cannot interleave sink writes — the
  // output stays byte-deterministic at any DHTLB_THREADS.
  if (cli.has("trace") || cli.has("metrics")) {
    examples::SinkFiles sinks;
    if (const std::string error = sinks.open(cli.get("trace"),
                                             cli.get("metrics"));
        !error.empty()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    sim::Engine engine(params, seed, lb::make_strategy(strategy));
    engine.set_trace(sinks.trace.get());
    engine.set_metrics(sinks.metrics.get());
    (void)engine.run();
    sinks.finish(/*report=*/true);
  }

  support::TextTable table({"metric", "value"});
  table.add_row({"runtime factor (mean)",
                 support::format_fixed(agg.runtime_factor.mean, 3)});
  table.add_row({"runtime factor (min..max)",
                 support::format_fixed(agg.runtime_factor.min, 3) + " .. " +
                     support::format_fixed(agg.runtime_factor.max, 3)});
  table.add_row(
      {"ticks (mean)", support::format_fixed(agg.ticks.mean, 1)});
  table.add_row({"completion rate",
                 support::format_fixed(agg.completion_rate * 100.0, 1) + "%"});
  table.add_row({"sybils/trial",
                 support::format_fixed(agg.mean_sybils_created, 1)});
  table.add_row({"leaves/trial", support::format_fixed(agg.mean_leaves, 1)});
  table.add_row({"queries/trial",
                 support::format_fixed(agg.mean_workload_queries, 1)});
  std::printf("%s", table.render().c_str());

  const std::string csv_prefix = cli.get("csv");
  if (!csv_prefix.empty()) {
    const auto row = exp::to_row("cli", params.describe(), agg);
    if (!exp::write_file(csv_prefix + "_summary.csv",
                         exp::rows_to_csv({row}))) {
      std::fprintf(stderr, "error: cannot write %s_summary.csv\n",
                   csv_prefix.c_str());
      return 1;
    }
    std::printf("\nwrote %s_summary.csv\n", csv_prefix.c_str());
  }

  if (!snapshot_ticks.empty()) {
    const auto run =
        exp::run_with_snapshots(params, strategy, seed, snapshot_ticks);
    for (const auto& snap : run.snapshots) {
      std::printf("\nsnapshot at tick %llu: %zu nodes, %llu tasks left\n",
                  static_cast<unsigned long long>(snap.tick),
                  snap.workloads.size(),
                  static_cast<unsigned long long>(snap.remaining_tasks));
      if (!csv_prefix.empty()) {
        const std::string path = csv_prefix + "_tick" +
                                 std::to_string(snap.tick) + ".csv";
        if (exp::write_file(path, exp::snapshot_to_csv(snap))) {
          std::printf("wrote %s\n", path.c_str());
        }
      }
    }
  }
  return 0;
}
