// Scenario VM: deterministically executes a parsed Script against one of
// the two substrates.
//
//   sim   — builds a sim::Engine and drives it through its pre-tick
//           timeline hook: scripted events apply at the start of their
//           tick (before churn, decisions, and consumption), and the
//           engine keeps ticking idle past a drained job while events
//           remain on the timeline.
//   chord — bootstraps a chord::Network (create + join + stabilize +
//           full fingers), then runs `ticks` rounds: events first, one
//           maintenance round after.
//
// All stochastic choices scripted by the VM (which node leaves, where
// injected keys land, lookup origins) flow through a dedicated RNG
// stream derived from the run seed, decorrelated from the engine's own
// stream — so (script, seed) replays byte-identically at any thread
// count, and a scenario edit does not shift the engine's churn draws.
//
// The result is a fixed-order list of bench::Record telemetry rows
// (wall_ms always 0, trials always 1): serializing them with
// bench::to_json yields a byte-stable golden for regression testing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harness/telemetry.hpp"
#include "scenario/script.hpp"

namespace dhtlb::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace dhtlb::obs

namespace dhtlb::sim {
class Engine;
}  // namespace dhtlb::sim

namespace dhtlb::scenario {

/// Telemetry produced by one scenario run.  `experiment` is
/// "scenario_<name>"; records carry it too, so to_json(experiment,
/// records) is the canonical serialization.
struct ScenarioResult {
  std::string experiment;
  std::vector<bench::Record> records;
};

/// Optional observability sinks threaded through a scenario run.  Both
/// pointers are nullable and non-owning; the caller controls flushing
/// and lifetime.  With sinks attached the VM drives the trace clock
/// (one set_tick per scenario tick), emits an instant per scripted
/// event, and samples per-tick metrics from whichever substrate runs.
/// Attaching sinks never changes the ScenarioResult — observation only.
struct ObsSinks {
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Sim substrate only: invoked on the engine after the audit flag and
  /// sinks are wired but before the first tick.  The VM never reads the
  /// environment, so the engine arrives single-threaded: this is where
  /// programs size it (Engine::set_threads from DHTLB_THREADS) and attach
  /// read-side subsystems (serve::Service installs the post-tick hook
  /// here) without the VM knowing about them.  Attachments must not
  /// mutate the world, or (script, seed) replay determinism — and every
  /// scenario golden — breaks.
  std::function<void(sim::Engine&)> configure_engine;
};

/// Runs `script` to completion under `seed` and returns its metrics.
/// Deterministic: equal (script, seed) pairs produce equal results.
/// `audit` forces the sim engine's per-tick InvariantAuditor on in any
/// build flavor, so scripted mutations are vetted tick by tick (no-op
/// for the chord substrate, whose ring-consistency check is a metric).
/// Aborts via DHTLB_CHECK on internal invariant violations; throws
/// only what the substrates throw (ring exhaustion, etc.).
ScenarioResult run_scenario(const Script& script, std::uint64_t seed,
                            bool audit = false,
                            const ObsSinks& sinks = {});

/// Seed precedence used by the runner and tests: an explicit CLI seed
/// wins, then the script's `seed` header, then `fallback`
/// (the program's DHTLB_SEED in practice).
std::uint64_t resolve_seed(const Script& script, bool cli_seed_set,
                           std::uint64_t cli_seed, std::uint64_t fallback);

}  // namespace dhtlb::scenario
