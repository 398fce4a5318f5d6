// dhtlb_scenario: runs a .scn scenario file deterministically and emits
// its metrics through the bench telemetry writer.  With --traffic it
// also attaches the serving plane (sim substrate only): reader threads
// resolve key lookups against frozen ring snapshots while the engine
// churns.
//
//   dhtlb_scenario scenarios/flash_crowd.scn
//   dhtlb_scenario scenarios/lossy_network.scn --seed 7
//   dhtlb_scenario scenarios/mass_failure.scn --check scenarios/goldens/BENCH_scenario_mass_failure.json
//   dhtlb_scenario scenarios/flash_crowd.scn --trace=t.json --metrics=m.jsonl
//   dhtlb_scenario scenarios/serve_churn_soak.scn --traffic zipf --readers 8
//   dhtlb_scenario scenarios/serve_churn_soak.scn --traffic zipf --check scenarios/goldens/BENCH_serve_serve_churn_soak.json
//
// A plain configuration run (one Params + one strategy, run to
// completion) is a header-only script: `name`, `strategy` and any of the
// Params keys --help lists, with no event blocks.  It runs exactly the
// engine that sim::Engine(params, seed, lb::make_strategy(strategy))
// builds.
//
// The JSON output is BENCH_scenario_<name>.json, or BENCH_serve_<name>.json
// with --traffic, written to DHTLB_BENCH_DIR (default "."); a directory
// that cannot take it fails before the run.  It is byte-stable for a
// fixed (file, seed, --traffic, --qps, --keys) at any DHTLB_THREADS and
// --readers setting: both are execution knobs, and no record carries
// either.  --check compares it against a committed golden
// and exits nonzero on any byte difference, which is how CI
// regression-tests the scenario engine and the serving plane.
//
// DHTLB_THREADS sizes the engine's shard-worker pool (0 or unset = every
// core); the summary line on stdout reports the count the engine ran on.
//
// Serve telemetry holds lookup and batch counts, hop-count statistics,
// the Sybil-absorption fraction, the load seen by traffic (gini and
// max-over-mean over owner hits) and view-lifecycle counters, all
// deterministic.  Wall time and lookups/sec are printed on stdout
// only, never in the JSON.
//
// --trace writes a Chrome trace_event JSON (open in chrome://tracing);
// --metrics writes per-tick metrics JSONL, with the serve catalog when
// --traffic is given.  Both are deterministic for a fixed (file, seed)
// and byte-identical at any DHTLB_THREADS, and observation never
// changes the telemetry (see OBSERVABILITY.md).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/telemetry.hpp"
#include "lb/factory.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "sink_files.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"

namespace {

using namespace dhtlb;

int fail(const std::string& message) {
  std::cerr << "dhtlb_scenario: " << message << "\n";
  return 1;
}

/// Whether `dir` is a directory this process may create files in.
bool writable_dir(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::is_directory(dir, ec) &&
         ::access(dir.c_str(), W_OK) == 0;
}

/// The serving-plane configuration from --traffic, --readers, --qps and
/// --keys; nullopt without --traffic.  Throws std::invalid_argument on a
/// bad value, on a serve flag given without --traffic, or on --keys
/// given for a model other than zipf.
std::optional<serve::Config> serve_config(const support::CliParser& cli) {
  if (!cli.has("traffic")) {
    for (const char* flag : {"readers", "qps", "keys"}) {
      if (cli.has(flag)) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs --traffic");
      }
    }
    return std::nullopt;
  }
  serve::Config config;
  const auto traffic = serve::parse_traffic(cli.get("traffic"));
  if (!traffic) {
    throw std::invalid_argument("unknown --traffic: " + cli.get("traffic"));
  }
  config.traffic = *traffic;
  // Readers past the shard count would never receive a shard.
  config.readers = cli.get_u64("readers");
  if (config.readers == 0 || config.readers > serve::kServeShards) {
    throw std::invalid_argument(
        "--readers " + std::to_string(config.readers) +
        " is out of range [1, " + std::to_string(serve::kServeShards) + "]");
  }
  config.lookups_per_tick = cli.get_u64("qps");
  // 0 would attach a plane that serves nothing; past the limit a tick
  // never finishes.
  if (config.lookups_per_tick == 0 ||
      config.lookups_per_tick > serve::kMaxLookupsPerTick) {
    throw std::invalid_argument(
        "--qps " + std::to_string(config.lookups_per_tick) +
        " is out of range [1, " + std::to_string(serve::kMaxLookupsPerTick) +
        "]");
  }
  if (cli.has("keys") && config.traffic != serve::Traffic::kZipf) {
    throw std::invalid_argument("--keys applies to --traffic zipf only");
  }
  config.traffic_config.key_universe = cli.get_u64("keys");
  if (config.traffic_config.key_universe == 0 ||
      config.traffic_config.key_universe > serve::kMaxKeyUniverse) {
    throw std::invalid_argument(
        "--keys " + std::to_string(config.traffic_config.key_universe) +
        " is out of range [1, " + std::to_string(serve::kMaxKeyUniverse) +
        "]");
  }
  return config;
}

/// The `.scn` vocabulary after the flags: every Params header key with its
/// value, default and meaning, then every name the `strategy` key takes.
std::string vocabulary_help() {
  std::ostringstream out;
  auto row = [&out](const std::string& left, std::string_view text) {
    out << left << std::string(left.size() < 28 ? 28 - left.size() : 2, ' ')
        << text;
  };
  out << "\n.scn header: name <identifier> (required), strategy <name>, "
         "substrate sim|chord,\nseed <u64>, ticks <horizon>, and these "
         "Params keys:\n";
  const sim::Params defaults;
  for (const sim::ParamField& field : sim::param_fields()) {
    row("  " + std::string(field.key) + " <" + std::string(field.value_name) +
            ">",
        field.help);
    out << " (default: " << defaults.format(field.key) << ")\n";
  }
  out << "\nstrategies (paper section, or the source of an extension):\n";
  for (const lb::StrategyEntry& entry : lb::strategy_table()) {
    row("  " + std::string(entry.name), entry.section);
    out << (entry.paper ? "\n" : " (extension)\n");
  }
  return out.str();
}

/// The serve telemetry rows of BENCH_serve_<name>.json, in file order.
std::vector<bench::Record> serve_records(const serve::Report& rep,
                                         const std::string& experiment,
                                         const std::string& cell,
                                         std::uint64_t seed) {
  std::vector<bench::Record> records;
  auto row = [&](const std::string& metric, double value) {
    bench::Record rec;
    rec.experiment = experiment;
    rec.cell = cell;
    rec.metric = metric;
    rec.value = value;
    rec.seed = seed;
    rec.trials = 1;
    records.push_back(rec);
  };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  row("lookups", d(rep.lookups));
  row("batches", d(rep.batches));
  row("hops_mean", rep.hops_mean);
  row("hops_p50", rep.hops_p50);
  row("hops_p99", rep.hops_p99);
  row("hops_max", d(rep.hops_max));
  row("sybil_hit_fraction", rep.sybil_hit_fraction);
  row("owners_hit", d(rep.owners_hit));
  row("owner_hits_gini", rep.owner_hits_gini);
  row("owner_hits_max_over_mean", rep.owner_hits_max_over_mean);
  row("views_published", d(rep.views.published));
  row("views_reclaimed", d(rep.views.reclaimed));
  row("views_retire_depth_max", d(rep.views.retire_depth_max));
  return records;
}

}  // namespace

int main(int argc, char** argv) try {
  support::CliParser cli;
  cli.add_flag("seed", "N", "", "override the RNG seed (default: the "
               "script's `seed` header, then DHTLB_SEED)");
  cli.add_flag("audit", "", "",
               "run the per-tick invariant auditor (sim substrate)");
  cli.add_flag("check", "FILE", "",
               "compare the telemetry JSON against a golden file and exit "
               "nonzero on any byte difference (implies no file output)");
  cli.add_flag("trace", "FILE", "",
               "write a Chrome trace_event JSON of the run");
  cli.add_flag("metrics", "FILE", "", "write per-tick metrics JSONL");
  cli.add_flag("traffic", "MODEL", "",
               "attach the serving plane with this key distribution: "
               "uniform | zipf | hotspot (sim substrate only; writes "
               "BENCH_serve_<name>.json)");
  cli.add_flag("readers", "N", "4",
               "with --traffic: reader worker threads serving lookups, "
               "1..16 (execution knob: results are byte-identical at any "
               "setting)");
  cli.add_flag("qps", "N", "2000",
               "with --traffic: lookups per tick (one batch per published "
               "ring view), 1..10000000");
  cli.add_flag("keys", "N", "100000",
               "with --traffic zipf: key-universe size, 1..2^22");
  cli.add_flag("quiet", "", "", "suppress the metric table on stdout");
  cli.add_flag("help", "", "", "show this help");

  if (!cli.parse(argc, argv)) return fail(cli.error());
  if (cli.get_bool("help")) {
    std::cout << cli.help("dhtlb_scenario <scenario.scn>",
                          "Run a scripted scenario deterministically and "
                          "emit BENCH_scenario_<name>.json telemetry, or "
                          "BENCH_serve_<name>.json with --traffic.  A "
                          "script with no event blocks runs one "
                          "configuration to completion.")
              << vocabulary_help();
    return 0;
  }
  if (cli.positionals().size() != 1) {
    return fail("expected exactly one scenario file (see --help)");
  }
  // An empty path (say, an unset CI variable) must not skip the compare.
  if (cli.has("check") && cli.get("check").empty()) {
    return fail("--check needs a golden file path");
  }

  std::optional<serve::Config> serving;
  try {
    serving = serve_config(cli);
  } catch (const std::invalid_argument& e) {
    return fail(e.what());
  }

  scenario::Script script;
  try {
    script = scenario::Script::load(cli.positionals()[0]);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  if (serving && script.substrate != scenario::Substrate::kSim) {
    return fail("the serving plane attaches to the sim substrate only "
                "(script declares `substrate chord`)");
  }

  // The telemetry file is written after the run, so a directory that
  // cannot take it is reported now instead of after a long run.  The
  // file is not created yet: a run that fails leaves none behind.
  const std::string bench_dir = support::env_string("DHTLB_BENCH_DIR", ".");
  const std::string bench_path = bench_dir + "/BENCH_" +
                                 (serving ? "serve_" : "scenario_") +
                                 script.name + ".json";
  if (!cli.has("check") && !writable_dir(bench_dir)) {
    return fail("cannot write " + bench_path);
  }

  const std::uint64_t seed = scenario::resolve_seed(
      script, cli.has("seed"), cli.has("seed") ? cli.get_u64("seed") : 0,
      support::env_seed());

  examples::SinkFiles sinks;
  if (const std::string error =
          sinks.open(cli.get("trace"), cli.get("metrics"));
      !error.empty()) {
    return fail(error);
  }

  std::optional<serve::Service> service;
  if (serving) {
    service.emplace(*serving, seed);
    service->set_metrics(sinks.metrics.get());
    service->set_trace(sinks.trace.get());
  }

  std::size_t threads = 1;  // the chord substrate runs serially
  scenario::ObsSinks obs;
  obs.trace = sinks.trace.get();
  obs.metrics = sinks.metrics.get();
  obs.configure_engine = [&](sim::Engine& engine) {
    engine.set_threads(support::env_threads());
    threads = engine.threads();
    if (service) service->attach(engine);
  };

  const bench::WallTimer timer;
  scenario::ScenarioResult result;
  try {
    result = scenario::run_scenario(script, seed, cli.get_bool("audit"), obs);
  } catch (const std::exception& e) {
    return fail(cli.positionals()[0] + ": " + e.what());
  }
  std::string experiment = result.experiment;
  std::vector<bench::Record> records = result.records;
  std::string summary = "seed " + std::to_string(seed) + ", threads " +
                        std::to_string(threads);
  double wall_ms = 0.0;
  std::uint64_t lookups = 0;
  if (service) {
    // The engine is gone; the final batch may still be in flight against
    // the Service's live view, so drain() is the run's closing barrier.
    service->drain();
    wall_ms = timer.elapsed_ms();
    const serve::Report rep = service->report();
    lookups = rep.lookups;
    const std::string cell(serve::traffic_name(serving->traffic));
    experiment = "serve_" + script.name;
    records = serve_records(rep, experiment, cell, seed);
    summary += ", traffic " + cell + ", " + result.experiment;
  }
  const bool quiet = cli.get_bool("quiet");
  if (!quiet) {
    std::cout << experiment << " (" << summary << ")\n";
    for (const bench::Record& rec : records) {
      std::printf("  %-28s %.17g\n", rec.metric.c_str(), rec.value);
    }
    if (wall_ms > 0.0) {
      std::printf("  %-28s %.0f\n", "lookups_per_sec",
                  static_cast<double>(lookups) / (wall_ms / 1000.0));
      std::printf("  %-28s %.3f\n", "wall_ms", wall_ms);
    }
  }
  sinks.finish(/*report=*/!quiet);
  const std::string json = bench::to_json(experiment, records);

  if (cli.has("check")) {
    const std::string golden_path = cli.get("check");
    std::ifstream golden_file(golden_path, std::ios::binary);
    if (!golden_file) return fail("cannot open golden: " + golden_path);
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    if (golden.str() != json) {
      std::cerr << "dhtlb_scenario: telemetry differs from golden "
                << golden_path << "\n--- golden ---\n"
                << golden.str() << "--- got ---\n"
                << json;
      return 1;
    }
    std::cout << "golden match: " << golden_path << "\n";
    return 0;
  }

  std::ofstream out(bench_path, std::ios::binary);
  if (!out) return fail("cannot write " + bench_path);
  out << json;
  if (!quiet) std::cout << "wrote " << bench_path << "\n";
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value, e.g. `--seed abc` (CliParser's typed getters).
  return fail(e.what());
}
