// dhtlb_fuzz: the scenario-fuzzing campaign driver.
//
// Batch mode generates seeded scripts and runs each one in a forked
// child per thread count, checking two oracles on every run: the
// per-tick invariant auditor (--audit) and cross-thread telemetry
// byte-identity.  On the first failure it ddmin-shrinks the script
// against the same child-run predicate and writes the failing + the
// minimized .scn next to a REPRO.txt into --out-dir, then exits 1.
//
//   dhtlb_fuzz --profile mixed --seed 1337 --count 100 --audit
//   dhtlb_fuzz --profile chord-faults --seed 7 --count 20
//       --threads-matrix 1,4 --out-dir fuzz-out
//   dhtlb_fuzz --profile storm --seed 3 --count 10 --emit-dir corpus
//
// Scripts are pure functions of (profile, seed): script i of a batch
// uses seed mix_seed(--seed, --index + i), carries that seed in its
// header, and is byte-identical on every platform — so a REPRO.txt line
// like `--seed S --index i --count 1` replays the exact failure, and
// `DHTLB_THREADS=t dhtlb_scenario <minimized.scn> --audit` replays one
// run of the minimized script.
//
// Each child loads the candidate .scn the parent wrote, so the artifact
// is byte-for-byte what ran.  Forked children isolate the parent from
// DHTLB_CHECK aborts (the auditor's failure mode) and each sizes its own
// engine pool; the parent never creates one, so it is single-threaded
// when it forks.  DHTLB_FUZZ_CORRUPT=<tick> arms a test-only world
// corruptor in every child (first post-tick at or after <tick>), which
// is how the FuzzCampaign test proves the campaign catches and shrinks a
// real invariant break end to end.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.hpp"
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What every child run shares, read once by the parent at startup.
struct ChildConfig {
  bool audit = false;
  std::uint64_t fallback_seed = 0;  // DHTLB_SEED, for scripts without one
  std::uint64_t corrupt_tick = 0;   // DHTLB_FUZZ_CORRUPT; 0 = disarmed
};

/// The child's body: runs `scn` at `threads` engine workers and writes
/// the telemetry JSON to `telemetry_out`.  Never returns.
[[noreturn]] void child_main(const ChildConfig& config, const fs::path& scn,
                             std::uint64_t threads,
                             const fs::path& telemetry_out,
                             const fs::path& err_out) {
  const int err =
      ::open(err_out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err < 0 || ::dup2(err, STDERR_FILENO) < 0) ::_exit(1);
  ::close(err);
  try {
    const scenario::Script script = scenario::Script::load(scn.string());
    const std::uint64_t seed =
        scenario::resolve_seed(script, false, 0, config.fallback_seed);
    // Test-only fault injection: at the first tick barrier at or after
    // corrupt_tick, bump the world's remaining-task counter behind the
    // engine's back.  The post-tick hook runs before the engine's audit
    // fold, so an armed run must abort the same tick — proving the
    // campaign's oracle actually fires.
    scenario::ObsSinks sinks;
    sinks.configure_engine = [&config, threads](sim::Engine& engine) {
      engine.set_threads(threads);
      if (config.corrupt_tick == 0) return;
      auto fired = std::make_shared<bool>(false);
      engine.set_post_tick_hook([&config, fired,
                                 &engine](std::uint64_t tick) {
        if (*fired || tick < config.corrupt_tick) return;
        *fired = true;
        sim::testing::WorldCorruptor::inflate_remaining(engine.world());
      });
    };
    const scenario::ScenarioResult result =
        scenario::run_scenario(script, seed, config.audit, sinks);
    if (!exp::write_file(telemetry_out.string(),
                         bench::to_json(result.experiment, result.records))) {
      std::cerr << "dhtlb_fuzz: cannot write " << telemetry_out.string()
                << "\n";
      ::_exit(1);
    }
  } catch (const std::exception& e) {
    std::cerr << "dhtlb_fuzz: " << e.what() << "\n";
    ::_exit(1);
  }
  ::_exit(0);
}

/// Runs `scn` in a forked child at `threads` engine workers, with the
/// child's stderr in `err_out`; returns the raw waitpid status (nonzero
/// = auditor abort or any other failure), or -1 when fork or waitpid
/// fails.
int run_child(const ChildConfig& config, const fs::path& scn,
              std::uint64_t threads, const fs::path& telemetry_out,
              const fs::path& err_out) {
  std::cout.flush();  // a child that flushed stdio would repeat buffered lines
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) child_main(config, scn, threads, telemetry_out, err_out);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return status;
}

struct RunVerdict {
  bool failed = false;
  std::string reason;
  std::uint64_t threads = 0;  // the thread count that failed
};

/// The batch oracle: run `script` once per thread count; fail on any
/// nonzero child exit or any cross-thread telemetry byte difference.
RunVerdict run_across_matrix(const ChildConfig& config,
                             const scenario::Script& script,
                             const std::vector<std::uint64_t>& threads,
                             const fs::path& scratch) {
  RunVerdict verdict;
  const fs::path scn = scratch / "candidate.scn";
  if (!exp::write_file(scn.string(), scenario::emit_script(script))) {
    verdict.failed = true;
    verdict.reason = "cannot write " + scn.string();
    return verdict;
  }
  std::string reference;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const fs::path out = scratch / ("telemetry_t" +
                                    std::to_string(threads[i]) + ".json");
    const fs::path err = scratch / "child.err";
    verdict.threads = threads[i];
    const int status = run_child(config, scn, threads[i], out, err);
    if (status < 0) {
      verdict.failed = true;
      verdict.reason = std::string("cannot run a child: ") +
                       std::strerror(errno);
      return verdict;
    }
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

}  // namespace

int main(int argc, char** argv) try {
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
  cli.add_flag("list-profiles", "", "", "list generator profiles and exit");
  cli.add_flag("quiet", "", "", "suppress per-script progress lines");
  cli.add_flag("help", "", "", "show this help");

  if (!cli.parse(argc, argv)) return fail(cli.error());
  if (cli.get_bool("help")) {
    std::cout << cli.help(
        "dhtlb_fuzz [--profile P --seed S --count N]",
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
  const std::string profile = cli.get("profile");
  if (!scenario::is_fuzz_profile(profile)) {
    return fail("unknown profile '" + profile +
                "' (see --list-profiles)");
  }
  const std::uint64_t base_seed =
      cli.has("seed") ? cli.get_u64("seed") : support::env_seed();
  const std::uint64_t first_index = cli.get_u64("index");
  const std::uint64_t count = cli.get_u64("count");
  const bool quiet = cli.get_bool("quiet");
  const std::vector<std::uint64_t> threads = cli.get_u64_list(
      "threads-matrix");
  if (threads.empty()) return fail("--threads-matrix must not be empty");
  ChildConfig child;
  child.audit = cli.get_bool("audit");
  child.fallback_seed = support::env_seed();
  child.corrupt_tick = support::env_u64("DHTLB_FUZZ_CORRUPT", 0);

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
        !exp::write_file((emit_dir / (script.name + ".scn")).string(),
                         text)) {
      return fail("cannot write corpus file for " + script.name);
    }
    const RunVerdict verdict =
        run_across_matrix(child, script, threads, scratch);
    if (!verdict.failed) {
      if (!quiet) std::cout << "[" << index << "] " << script.name
                            << " ok\n";
      continue;
    }

    std::cerr << "dhtlb_fuzz: FAILURE on " << script.name << ": "
              << verdict.reason << "\n";
    const scenario::Script minimized = scenario::shrink_script(
        script, [&](const scenario::Script& candidate) {
          return run_across_matrix(child, candidate, threads, scratch).failed;
        });
    const fs::path failing = out_dir / (script.name + ".failing.scn");
    const fs::path min_path = out_dir / (script.name + ".minimized.scn");
    const fs::path repro_path = out_dir / (script.name + ".REPRO.txt");
    std::ostringstream repro;
    repro << "profile: " << profile << "\n"
          << "script seed: " << script_seed << " (base " << base_seed
          << ", index " << index << ")\n"
          << "failure: " << verdict.reason << "\n"
          << "minimized blocks: " << minimized.blocks.size() << "\n"
          << "repro (batch):  dhtlb_fuzz --profile " << profile << " --seed "
          << base_seed << " --index " << index << " --count 1"
          << (child.audit ? " --audit" : "") << " --threads-matrix ";
    for (std::size_t t = 0; t < threads.size(); ++t) {
      repro << (t ? "," : "") << threads[t];
    }
    repro << "\nrepro (single): DHTLB_THREADS=" << verdict.threads
          << " dhtlb_scenario " << min_path.string()
          << (child.audit ? " --audit" : "") << "\n";
    for (const auto& [path, content] :
         {std::pair{failing, text},
          std::pair{min_path, scenario::emit_script(minimized)},
          std::pair{repro_path, repro.str()}}) {
      if (!exp::write_file(path.string(), content)) {
        return fail("cannot write " + path.string());
      }
    }
    std::cerr << "dhtlb_fuzz: wrote " << failing.string() << ", "
              << min_path.string() << " (" << minimized.blocks.size()
              << " block(s)) and REPRO.txt\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "dhtlb_fuzz: " << count << " script(s) passed (profile "
              << profile << ", base seed " << base_seed << ")\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value, e.g. `--count abc` (CliParser's typed getters).
  return fail(e.what());
}
