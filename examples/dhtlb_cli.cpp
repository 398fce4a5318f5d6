// dhtlb_cli — the general-purpose command-line driver: run any paper (or
// extension) configuration without writing C++, with multi-trial
// aggregation, workload snapshots, and CSV export.
//
// Examples:
//   dhtlb_cli --strategy random-injection --nodes 1000 --tasks 100000
//   dhtlb_cli --strategy churn --churn 0.01 --trials 20
//   dhtlb_cli --strategy invitation --heterogeneous --work-measure strength
//             --snapshots 0,5,35 --csv results/invite   (one line)
//   dhtlb_cli --list-strategies
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sink_files.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

// The Params fields this driver exposes, in --help order.  Each flag is
// the field's sim::param_fields() key, with its grammar and limit.
constexpr std::string_view kParamFlags[] = {
    "nodes",     "tasks",      "churn",      "heterogeneous", "work-measure",
    "threshold", "successors", "max-sybils", "mark-failed-ranges"};

}  // namespace

int main(int argc, char** argv) try {
  using namespace dhtlb;

  support::CliParser cli;
  cli.add_flag("strategy", "name", "random-injection",
               "balancing strategy (see --list-strategies)");
  sim::Params params;
  for (const std::string_view key : kParamFlags) {
    const sim::ParamField& field = *sim::find_param_field(key);
    const bool boolean = field.grammar == sim::ParamField::Grammar::kBool;
    cli.add_flag(std::string(key),
                 boolean ? "" : std::string(field.value_name),
                 params.format(key), std::string(field.help));
  }
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
    std::printf("%s", cli.help("dhtlb_cli",
                               "Simulate autonomous DHT load balancing "
                               "(Rosen et al. 2021 reproduction).")
                          .c_str());
    return 0;
  }
  if (cli.get_bool("list-strategies")) {
    for (const bool paper : {true, false}) {
      std::printf("%s\n", paper ? "paper strategies (section):"
                                 : "extensions (section or source):");
      for (const lb::StrategyEntry& entry : lb::strategy_table()) {
        if (entry.paper != paper) continue;
        std::printf("  %-26s %s\n", std::string(entry.name).c_str(),
                    std::string(entry.section).c_str());
      }
    }
    return 0;
  }

  for (const std::string_view key : kParamFlags) {
    const std::string flag(key);
    if (!cli.has(flag)) continue;
    try {
      params.set(key, cli.get(flag));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("--" + flag + ": " + e.what());
    }
  }

  const std::string strategy = cli.get("strategy");
  const std::uint64_t seed =
      cli.has("seed") ? cli.get_u64("seed") : support::env_seed();
  const std::size_t trials = cli.get_u64("trials");
  if (trials == 0) {
    std::fprintf(stderr, "error: --trials 0 is out of range (at least 1)\n");
    return 2;
  }
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
} catch (const std::invalid_argument& e) {
  // A malformed flag value, e.g. `--nodes abc` (CliParser's typed getters).
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
