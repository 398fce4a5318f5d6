// dhtlb_fuzz: the scenario-fuzzing campaign driver.
//
// Batch mode generates seeded scripts and runs each one in a child
// process per thread count, checking two oracles on every run: the
// per-tick invariant auditor (--audit) and cross-thread telemetry
// byte-identity.  On the first failure it ddmin-shrinks the script
// against the same child-run predicate and writes the failing + the
// minimized .scn next to a REPRO.txt into --out-dir, then exits 1.
//
//   dhtlb_fuzz --profile mixed --seed 1337 --count 100 --audit
//   dhtlb_fuzz --profile chord-faults --seed 7 --count 20
//       --threads-matrix 1,4 --out-dir fuzz-out
//   dhtlb_fuzz --profile storm --seed 3 --count 10 --emit-dir corpus
//       --emit-only          # corpus generation, no runs
//   dhtlb_fuzz --run-file corpus/fuzz_storm_123.scn --audit
//
// Scripts are pure functions of (profile, seed): script i of a batch
// uses seed mix_seed(--seed, --index + i), carries that seed in its
// header, and is byte-identical on every platform — so a REPRO.txt line
// like `--seed S --index i --count 1` replays the exact failure.
//
// Child runs isolate the parent from DHTLB_CHECK aborts (the auditor's
// failure mode) and give each thread count its own DHTLB_THREADS
// environment.  DHTLB_FUZZ_CORRUPT=<tick> arms a test-only world
// corruptor in --run-file mode (first post-tick at or after <tick>),
// which is how CI proves the lane catches and shrinks a real invariant
// break end to end.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "sim/engine.hpp"
#include "sim/world_corruptor.hpp"
#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace {

using namespace dhtlb;
namespace fs = std::filesystem;

int fail(const std::string& message) {
  std::cerr << "dhtlb_fuzz: " << message << "\n";
  return 1;
}

bool write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string shell_quote(const std::string& s) {
  std::string quoted = "'";
  for (const char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

/// Path of this very binary (children re-invoke it in --run-file mode).
std::string self_exe(const char* argv0) {
  std::error_code ec;
  const fs::path proc = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) return proc.string();
  return argv0;  // non-procfs fallback: argv[0] relative to the cwd
}

/// Runs one script file in a child at `threads` workers; returns the
/// child's exit status (nonzero = auditor abort or any other failure).
int run_child(const std::string& exe, const fs::path& scn, std::size_t threads,
              bool audit, const fs::path& telemetry_out,
              const fs::path& err_out) {
  std::string cmd = "DHTLB_THREADS=" + std::to_string(threads) + " " +
                    shell_quote(exe) + " --run-file " +
                    shell_quote(scn.string());
  if (audit) cmd += " --audit";
  cmd += " --telemetry-out " + shell_quote(telemetry_out.string());
  cmd += " > /dev/null 2> " + shell_quote(err_out.string());
  return std::system(cmd.c_str());
}

struct RunVerdict {
  bool failed = false;
  std::string reason;
};

/// The batch oracle: run `script` once per thread count; fail on any
/// nonzero child exit or any cross-thread telemetry byte difference.
RunVerdict run_across_matrix(const std::string& exe,
                             const scenario::Script& script,
                             const std::vector<std::uint64_t>& threads,
                             bool audit, const fs::path& scratch) {
  RunVerdict verdict;
  const fs::path scn = scratch / "candidate.scn";
  if (!write_file(scn, scenario::emit_script(script))) {
    verdict.failed = true;
    verdict.reason = "cannot write " + scn.string();
    return verdict;
  }
  std::string reference;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const fs::path out = scratch / ("telemetry_t" +
                                    std::to_string(threads[i]) + ".json");
    const fs::path err = scratch / "child.err";
    const int status = run_child(exe, scn, threads[i], audit, out, err);
    if (status != 0) {
      verdict.failed = true;
      verdict.reason = "child exited with status " + std::to_string(status) +
                       " at DHTLB_THREADS=" + std::to_string(threads[i]) +
                       "\n--- child stderr ---\n" + read_file(err);
      return verdict;
    }
    const std::string telemetry = read_file(out);
    if (i == 0) {
      reference = telemetry;
    } else if (telemetry != reference) {
      verdict.failed = true;
      verdict.reason = "telemetry differs between DHTLB_THREADS=" +
                       std::to_string(threads[0]) + " and " +
                       std::to_string(threads[i]);
      return verdict;
    }
  }
  return verdict;
}

int run_file_mode(const support::CliParser& cli) {
  scenario::Script script;
  try {
    script = scenario::Script::load(cli.get("run-file"));
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  const std::uint64_t seed = scenario::resolve_seed(
      script, cli.has("seed"), cli.has("seed") ? cli.get_u64("seed") : 0,
      support::env_seed());

  // DHTLB_THREADS sizes the engine: the --threads-matrix oracle runs
  // this mode once per thread count.
  //
  // Test-only fault injection: at the first tick barrier at or after
  // DHTLB_FUZZ_CORRUPT, bump the world's remaining-task counter behind
  // the engine's back.  The post-tick hook runs before the engine's
  // audit fold, so an armed run must abort the same tick — proving the
  // fuzz lane's oracle actually fires.
  scenario::ObsSinks sinks;
  const std::uint64_t corrupt_tick =
      support::env_u64("DHTLB_FUZZ_CORRUPT", 0);
  sinks.configure_engine = [corrupt_tick](sim::Engine& engine) {
    engine.set_threads(support::env_threads());
    if (corrupt_tick == 0) return;
    auto fired = std::make_shared<bool>(false);
    engine.set_post_tick_hook(
        [corrupt_tick, fired, &engine](std::uint64_t tick) {
          if (*fired || tick < corrupt_tick) return;
          *fired = true;
          sim::testing::WorldCorruptor::inflate_remaining(engine.world());
        });
  };

  const scenario::ScenarioResult result =
      scenario::run_scenario(script, seed, cli.get_bool("audit"), sinks);
  const std::string json = bench::to_json(result.experiment, result.records);
  if (cli.has("telemetry-out") && !cli.get("telemetry-out").empty()) {
    if (!write_file(cli.get("telemetry-out"), json)) {
      return fail("cannot write " + cli.get("telemetry-out"));
    }
  } else {
    std::cout << json;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliParser cli;
  cli.add_flag("profile", "NAME", "mixed",
               "generator profile (see --list-profiles)");
  cli.add_flag("seed", "N", "", "batch base seed (default DHTLB_SEED); "
               "script i uses mix_seed(seed, index + i)");
  cli.add_flag("index", "N", "0", "first script index of the batch");
  cli.add_flag("count", "N", "1", "number of scripts to generate");
  cli.add_flag("audit", "", "",
               "run every script under the per-tick invariant auditor");
  cli.add_flag("threads-matrix", "LIST", "1,2,8",
               "comma-separated DHTLB_THREADS values; telemetry must be "
               "byte-identical across all of them");
  cli.add_flag("out-dir", "DIR", "fuzz-out",
               "scratch + failure-artifact directory");
  cli.add_flag("emit-dir", "DIR", "",
               "also write every generated .scn here (corpus)");
  cli.add_flag("emit-only", "", "",
               "generate and write scripts without running them "
               "(requires --emit-dir)");
  cli.add_flag("run-file", "FILE", "",
               "run one scenario file in-process (child mode)");
  cli.add_flag("telemetry-out", "FILE", "",
               "with --run-file: write the telemetry JSON here");
  cli.add_flag("list-profiles", "", "", "list generator profiles and exit");
  cli.add_flag("quiet", "", "", "suppress per-script progress lines");
  cli.add_flag("help", "", "", "show this help");

  if (!cli.parse(argc, argv)) return fail(cli.error());
  if (cli.get_bool("help")) {
    std::cout << cli.help(
        "dhtlb_fuzz [--profile P --seed S --count N | --run-file F]",
        "Seeded scenario fuzzer: generates .scn timelines, runs each "
        "under the invariant auditor across a thread matrix, and "
        "shrinks failures to a minimized repro.");
    return 0;
  }
  if (cli.get_bool("list-profiles")) {
    for (const std::string_view name : scenario::fuzz_profiles()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (cli.has("run-file") && !cli.get("run-file").empty()) {
    return run_file_mode(cli);
  }

  const std::string profile = cli.get("profile");
  if (!scenario::is_fuzz_profile(profile)) {
    return fail("unknown profile '" + profile +
                "' (see --list-profiles)");
  }
  const std::uint64_t base_seed =
      cli.has("seed") ? cli.get_u64("seed") : support::env_seed();
  const std::uint64_t first_index = cli.get_u64("index");
  const std::uint64_t count = cli.get_u64("count");
  const bool audit = cli.get_bool("audit");
  const bool quiet = cli.get_bool("quiet");
  const bool emit_only = cli.get_bool("emit-only");
  const std::vector<std::uint64_t> threads = cli.get_u64_list(
      "threads-matrix");
  if (threads.empty()) return fail("--threads-matrix must not be empty");
  if (emit_only && cli.get("emit-dir").empty()) {
    return fail("--emit-only requires --emit-dir");
  }

  const fs::path out_dir = cli.get("out-dir");
  const fs::path scratch = out_dir / "work";
  std::error_code ec;
  fs::create_directories(scratch, ec);
  if (ec) return fail("cannot create " + scratch.string());
  fs::path emit_dir;
  if (!cli.get("emit-dir").empty()) {
    emit_dir = cli.get("emit-dir");
    fs::create_directories(emit_dir, ec);
    if (ec) return fail("cannot create " + emit_dir.string());
  }

  const std::string exe = self_exe(argv[0]);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = first_index + i;
    const std::uint64_t script_seed = support::mix_seed(base_seed, index);
    const scenario::Script script =
        scenario::generate_script(profile, script_seed);
    const std::string text = scenario::emit_script(script);
    // Reproducibility self-check: the generator must be a pure function
    // of (profile, seed) — regenerate and byte-compare before trusting
    // any downstream repro line.
    if (scenario::emit_script(
            scenario::generate_script(profile, script_seed)) != text) {
      return fail("generator is not deterministic for seed " +
                  std::to_string(script_seed));
    }
    if (!emit_dir.empty() &&
        !write_file(emit_dir / (script.name + ".scn"), text)) {
      return fail("cannot write corpus file for " + script.name);
    }
    if (emit_only) {
      if (!quiet) std::cout << "[" << index << "] emitted " << script.name
                            << ".scn\n";
      continue;
    }

    const RunVerdict verdict =
        run_across_matrix(exe, script, threads, audit, scratch);
    if (!verdict.failed) {
      if (!quiet) std::cout << "[" << index << "] " << script.name
                            << " ok\n";
      continue;
    }

    std::cerr << "dhtlb_fuzz: FAILURE on " << script.name << ": "
              << verdict.reason << "\n";
    const scenario::Script minimized = scenario::shrink_script(
        script, [&](const scenario::Script& candidate) {
          return run_across_matrix(exe, candidate, threads, audit, scratch)
              .failed;
        });
    const fs::path failing = out_dir / (script.name + ".failing.scn");
    const fs::path min_path = out_dir / (script.name + ".minimized.scn");
    write_file(failing, text);
    write_file(min_path, scenario::emit_script(minimized));
    std::ostringstream repro;
    repro << "profile: " << profile << "\n"
          << "script seed: " << script_seed << " (base " << base_seed
          << ", index " << index << ")\n"
          << "failure: " << verdict.reason << "\n"
          << "minimized blocks: " << minimized.blocks.size() << "\n"
          << "repro (batch):  dhtlb_fuzz --profile " << profile << " --seed "
          << base_seed << " --index " << index << " --count 1"
          << (audit ? " --audit" : "") << " --threads-matrix ";
    for (std::size_t t = 0; t < threads.size(); ++t) {
      repro << (t ? "," : "") << threads[t];
    }
    repro << "\nrepro (single): dhtlb_fuzz --run-file " << min_path.string()
          << (audit ? " --audit" : "") << "\n";
    write_file(out_dir / (script.name + ".REPRO.txt"), repro.str());
    std::cerr << "dhtlb_fuzz: wrote " << failing.string() << ", "
              << min_path.string() << " (" << minimized.blocks.size()
              << " block(s)) and REPRO.txt\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "dhtlb_fuzz: " << count << " script(s) "
              << (emit_only ? "emitted" : "passed") << " (profile "
              << profile << ", base seed " << base_seed << ")\n";
  }
  return 0;
}
