// Scenario scripts: a from-scratch, dependency-free description format
// for scripted timelines over the simulator and the Chord substrate.
//
// A scenario file is line-oriented.  Header lines are `key value` pairs
// that configure the run (network size, strategy, churn, horizon, ...);
// event blocks schedule mutations on the timeline:
//
//   # Flash crowd: 100 late joiners at tick 10 (SS VII / SS I).
//   name      flash_crowd
//   strategy  random-injection
//   nodes     200
//   tasks     20000
//   seed      48879
//
//   at 10
//     join 100
//   end
//
//   every 25 from 50 until 150
//     inject-uniform 500
//   end
//
// `at <tick>` blocks fire once at the start of that tick (before churn,
// decisions, and consumption); `every <period>` blocks fire on every
// matching tick of [from, until].  `at` blocks must appear in strictly
// increasing tick order.  `#` starts a comment; blank lines are ignored.
// A script with no blocks is a plain configuration run: the engine runs
// the header's Params and strategy to completion, as the paper's
// experiments do (§V-C).
// Every diagnostic is file:line-prefixed — see ParseError.
//
// Every count and tick has a limit: each unit costs the run memory or a
// loop iteration, so a number past it is a ParseError rather than a run
// that allocates or loops until it dies.  Two tables hold the language:
// sim::param_fields() the `Params` header keys, and kEventTable
// (script.cpp) the events, a row per Event::Kind with its words, each
// operand's grammar, noun and limit, its substrates and its trace name.
// `substrate sim` (the default) drives sim::Engine through its timeline
// hook; `substrate chord` drives chord::Network, one maintenance round
// per tick, with seeded message faults.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/params.hpp"

namespace dhtlb::chord { struct FaultConfig; }

namespace dhtlb::scenario {

/// Largest `ticks` horizon, `at` tick and `every` period/from/until:
/// 100x the longest committed horizon (soak_churn_10k's 10,000).  The
/// runner loops once per tick up to the horizon.
inline constexpr std::uint64_t kMaxScriptTicks = 1'000'000;

/// Which execution model the scenario drives.
enum class Substrate { kSim, kChord };

/// One scripted mutation: its kind's kEventTable row (script.cpp) says
/// which of count, value and text the operands fill.  `line` points back
/// into the source file for runtime diagnostics.
struct Event {
  enum class Kind {
    kJoin, kLeave, kCrash, kInjectUniform, kInjectHotspot,
    kSetChurn, kSetThreshold, kSetStrategy, kFault, kLookup
  };
  Kind kind = Kind::kJoin;
  std::uint64_t count = 0;
  double value = 0.0;
  std::string text;
  int line = 0;
};

/// One `at` or `every` block and its events.
struct Block {
  bool recurring = false;   // false: `at`, true: `every`
  std::uint64_t at = 0;     // `at`: the tick; `every`: the period
  std::uint64_t from = 1;   // `every` only: first eligible tick
  std::uint64_t until = 0;  // `every` only: last eligible tick (inclusive)
  std::vector<Event> events;
  int line = 0;
};

/// The canonical `.scn` text of one event line, e.g. "inject-hotspot 10
/// 0.125"; parsing it yields the same event.
std::string format_event(const Event& event);

/// The trace instant name of an event kind, e.g. "scripted_join".
std::string_view trace_label(Event::Kind kind);

/// A `fault` kind: its name and the message-fault probability it sets.
struct FaultKind {
  std::string_view name;
  double chord::FaultConfig::*probability;
};
std::span<const FaultKind> fault_kinds();

/// Parse failure with the offending location.  what() is already
/// "<file>:<line>: <message>".
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string_view file, int line, const std::string& message)
      : std::runtime_error(std::string(file) + ":" + std::to_string(line) +
                           ": " + message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// A fully parsed and validated scenario.
struct Script {
  /// Required; [A-Za-z0-9_-]+, since it names the telemetry experiment
  /// and its output file.
  std::string name;
  Substrate substrate = Substrate::kSim;

  /// Simulation parameters assembled from the header (sim substrate).
  /// For chord, only initial_nodes and num_successors are used.
  sim::Params params;

  /// Initial strategy (sim substrate); hot-swappable via events.
  std::string strategy = "none";

  /// Tick horizon from the `ticks` header: 0 = run until the job drains
  /// (sim; invalid for chord, which has no natural end).
  std::uint64_t horizon = 0;

  /// Default seed from the `seed` header; callers may override.
  std::uint64_t seed = 0;
  bool seed_set = false;

  std::vector<Block> blocks;

  /// Parses and validates `text`.  `filename` labels diagnostics only.
  /// Throws ParseError on any malformed line, unknown key/event,
  /// duplicate header key, out-of-order `at` tick, or substrate/event
  /// mismatch.
  static Script parse(std::string_view text, std::string_view filename);

  /// Reads and parses a file; throws std::runtime_error if unreadable.
  static Script load(const std::string& path);
};

}  // namespace dhtlb::scenario
