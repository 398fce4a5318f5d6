// dhtlb_scenario: runs a .scn scenario file deterministically and emits
// its metrics through the bench telemetry writer.  With --traffic it
// also attaches the serving plane (sim substrate only): reader threads
// resolve key lookups against RCU ring snapshots while the engine churns.
//
//   dhtlb_scenario scenarios/flash_crowd.scn
//   dhtlb_scenario scenarios/lossy_network.scn --seed 7
//   dhtlb_scenario scenarios/mass_failure.scn --check scenarios/goldens/BENCH_scenario_mass_failure.json
//   dhtlb_scenario scenarios/flash_crowd.scn --trace=t.json --metrics=m.jsonl
//   dhtlb_scenario scenarios/serve_churn_soak.scn --traffic zipf --readers 8
//   dhtlb_scenario scenarios/serve_churn_soak.scn --traffic zipf --check scenarios/goldens/BENCH_serve_serve_churn_soak.json
//
// The JSON output is BENCH_scenario_<name>.json, or BENCH_serve_<name>.json
// with --traffic (honoring DHTLB_BENCH_DIR and DHTLB_BENCH_JSON=0).  It is
// byte-stable for a fixed (file, seed, --traffic, --qps, --keys) at any
// DHTLB_THREADS and --readers setting: both are execution knobs, and no
// record carries either.  --check compares it against a committed golden
// and exits nonzero on any byte difference, which is how CI
// regression-tests the scenario engine and the serving plane.
//
// DHTLB_THREADS sizes the engine's shard-worker pool (0 or unset = every
// core); the summary line on stdout reports the count the engine ran on.
//
// Serve telemetry holds lookup and batch counts, hop-count statistics,
// the Sybil-absorption fraction, the load seen by traffic (gini and
// max-over-mean over owner hits) and view-lifecycle counters.  The only
// wall-derived rows, the per-lookup latency percentiles, are recorded
// under the metric name "wall_ms" (which the value gate in
// scripts/compare_bench.py skips) and zeroed in DHTLB_BENCH_DETERMINISTIC
// mode, where latency capture is off.  Lookups/sec is printed on stdout
// only, never in the JSON.
//
// --trace writes a Chrome trace_event JSON (open in chrome://tracing);
// --metrics writes per-tick metrics JSONL, with the serve catalog when
// --traffic is given.  Both are deterministic for a fixed (file, seed)
// and byte-identical at any DHTLB_THREADS; both override the script's
// `trace`/`metrics` header keys, and observation never changes the
// telemetry (see OBSERVABILITY.md).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/telemetry.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sink_files.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"

namespace {

using namespace dhtlb;

int fail(const std::string& message) {
  std::cerr << "dhtlb_scenario: " << message << "\n";
  return 1;
}

/// The serving-plane configuration from --traffic, --readers, --qps and
/// --keys; nullopt without --traffic.  Throws std::invalid_argument on a
/// bad value, or on a serve flag given without --traffic.
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
  config.readers = cli.get_u64("readers");
  if (config.readers == 0) {
    throw std::invalid_argument("--readers must be >= 1");
  }
  config.lookups_per_tick = cli.get_u64("qps");
  config.traffic_config.key_universe = cli.get_u64("keys");
  // Latency needs a real clock; deterministic mode trades it for
  // byte-stable output (the latency rows stay, zeroed).
  config.measure_latency = !bench::Telemetry::deterministic();
  return config;
}

/// The serve telemetry rows of BENCH_serve_<name>.json, in file order.
std::vector<bench::Record> serve_records(const serve::Report& rep,
                                         const std::string& experiment,
                                         const std::string& cell,
                                         std::uint64_t seed,
                                         double wall_ms) {
  std::vector<bench::Record> records;
  auto push = [&](const std::string& row_cell, const std::string& metric,
                  double value, double row_wall_ms) {
    bench::Record rec;
    rec.experiment = experiment;
    rec.cell = row_cell;
    rec.metric = metric;
    rec.value = value;
    rec.wall_ms = row_wall_ms;
    rec.seed = seed;
    rec.trials = 1;
    records.push_back(rec);
  };
  auto row = [&](const std::string& metric, double value) {
    push(cell, metric, value, 0.0);
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
  push(cell + "/latency_p50_ns", "wall_ms", rep.latency_p50_ns, wall_ms);
  push(cell + "/latency_p99_ns", "wall_ms", rep.latency_p99_ns, wall_ms);
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli;
  cli.add_flag("seed", "N", "", "override the RNG seed (default: the "
               "script's `seed` header, then DHTLB_SEED)");
  cli.add_flag("audit", "", "",
               "run the per-tick invariant auditor (sim substrate)");
  cli.add_flag("check", "FILE", "",
               "compare the telemetry JSON against a golden file and exit "
               "nonzero on any byte difference (implies no file output)");
  cli.add_flag("trace", "FILE", "",
               "write a Chrome trace_event JSON of the run (overrides the "
               "script's `trace` header)");
  cli.add_flag("metrics", "FILE", "",
               "write per-tick metrics JSONL (overrides the script's "
               "`metrics` header)");
  cli.add_flag("traffic", "MODEL", "",
               "attach the serving plane with this key distribution: "
               "uniform | zipf | hotspot (sim substrate only; writes "
               "BENCH_serve_<name>.json)");
  cli.add_flag("readers", "N", "4",
               "with --traffic: reader worker threads serving lookups "
               "(execution knob: results are byte-identical at any "
               "setting)");
  cli.add_flag("qps", "N", "2000",
               "with --traffic: lookups per tick (one batch per published "
               "ring view)");
  cli.add_flag("keys", "N", "100000",
               "with --traffic: zipf key-universe size (zipf only; "
               "<= 2^22)");
  cli.add_flag("quiet", "", "", "suppress the metric table on stdout");
  cli.add_flag("help", "", "", "show this help");

  if (!cli.parse(argc, argv)) return fail(cli.error());
  if (cli.get_bool("help")) {
    std::cout << cli.help("dhtlb_scenario <scenario.scn>",
                          "Run a scripted scenario deterministically and "
                          "emit BENCH_scenario_<name>.json telemetry, or "
                          "BENCH_serve_<name>.json with --traffic.");
    return 0;
  }
  if (cli.positionals().size() != 1) {
    return fail("expected exactly one scenario file (see --help)");
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

  const std::uint64_t seed = scenario::resolve_seed(
      script, cli.has("seed"), cli.has("seed") ? cli.get_u64("seed") : 0,
      support::env_seed());

  // Observability sinks: CLI flag first, then the script header key.
  examples::SinkFiles sinks;
  if (const std::string error = sinks.open(
          cli.has("trace") ? cli.get("trace") : script.trace_path,
          cli.has("metrics") ? cli.get("metrics") : script.metrics_path);
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
  const scenario::ScenarioResult result =
      scenario::run_scenario(script, seed, cli.get_bool("audit"), obs);
  std::string experiment = result.experiment;
  std::vector<bench::Record> records = result.records;
  std::string summary = "seed " + std::to_string(seed) + ", threads " +
                        std::to_string(threads);
  double wall_ms = 0.0;
  std::uint64_t lookups = 0;
  if (service) {
    // The engine is gone; the final batch may still be in flight against
    // the last published view, so drain() is the run's closing barrier.
    service->drain();
    wall_ms = bench::Telemetry::deterministic() ? 0.0 : timer.elapsed_ms();
    const serve::Report rep = service->report();
    lookups = rep.lookups;
    const std::string cell(serve::traffic_name(serving->traffic));
    experiment = "serve_" + script.name;
    records = serve_records(rep, experiment, cell, seed, wall_ms);
    summary += ", traffic " + cell + ", " + result.experiment;
  }
  const bool quiet = cli.get_bool("quiet");
  if (!quiet) {
    std::cout << experiment << " (" << summary << ")\n";
    for (const bench::Record& rec : records) {
      std::printf("  %-28s %.17g\n",
                  (rec.metric == "wall_ms" ? rec.cell : rec.metric).c_str(),
                  rec.value);
    }
    if (wall_ms > 0.0) {
      std::printf("  %-28s %.0f\n", "lookups_per_sec",
                  static_cast<double>(lookups) / (wall_ms / 1000.0));
      std::printf("  %-28s %.3f\n", "wall_ms", wall_ms);
    }
  }
  sinks.finish(/*report=*/!quiet);
  const std::string json = bench::to_json(experiment, records);

  if (cli.has("check") && !cli.get("check").empty()) {
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

  if (bench::Telemetry::json_enabled()) {
    const std::string dir = support::env_string("DHTLB_BENCH_DIR", ".");
    const std::string path = dir + "/BENCH_" + experiment + ".json";
    std::ofstream out(path, std::ios::binary);
    if (!out) return fail("cannot write " + path);
    out << json;
    if (!quiet) std::cout << "wrote " << path << "\n";
  }
  return 0;
}
