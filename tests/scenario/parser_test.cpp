// Parser coverage for the scenario script format: the happy path and —
// load-bearing for usability — every diagnostic the format promises:
// line-numbered errors instead of crashes for unknown events,
// out-of-order `at` ticks, duplicate header keys, and trailing garbage.
#include "scenario/script.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dhtlb::scenario {
namespace {

Script parse(const std::string& text) {
  return Script::parse(text, "test.scn");
}

/// Asserts `text` fails to parse, reporting `line` and containing
/// `needle` in the message.
void expect_error(const std::string& text, int line,
                  const std::string& needle) {
  try {
    Script::parse(text, "test.scn");
    FAIL() << "expected ParseError containing '" << needle << "'";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    // Diagnostics must be file:line-prefixed.
    EXPECT_EQ(std::string(e.what()).find("test.scn:" + std::to_string(line) +
                                         ":"),
              0u)
        << e.what();
  }
}

TEST(ScenarioParser, ParsesHeaderBlocksAndComments) {
  const Script s = parse(
      "# a comment\n"
      "name      demo\n"
      "strategy  random-injection\n"
      "nodes     100   # trailing comment\n"
      "tasks     5000\n"
      "churn     0.01\n"
      "ticks     50\n"
      "seed      99\n"
      "\n"
      "at 10\n"
      "  join 20\n"
      "  set churn 0.05\n"
      "end\n"
      "every 5 from 15 until 45\n"
      "  inject-uniform 100\n"
      "end\n");
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.substrate, Substrate::kSim);
  EXPECT_EQ(s.strategy, "random-injection");
  EXPECT_EQ(s.params.initial_nodes, 100u);
  EXPECT_EQ(s.params.total_tasks, 5000u);
  EXPECT_DOUBLE_EQ(s.params.churn_rate, 0.01);
  EXPECT_EQ(s.horizon, 50u);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_TRUE(s.seed_set);
  ASSERT_EQ(s.blocks.size(), 2u);
  EXPECT_FALSE(s.blocks[0].recurring);
  EXPECT_EQ(s.blocks[0].at, 10u);
  ASSERT_EQ(s.blocks[0].events.size(), 2u);
  EXPECT_EQ(s.blocks[0].events[0].kind, Event::Kind::kJoin);
  EXPECT_EQ(s.blocks[0].events[0].count, 20u);
  EXPECT_EQ(s.blocks[0].events[1].kind, Event::Kind::kSetChurn);
  EXPECT_DOUBLE_EQ(s.blocks[0].events[1].value, 0.05);
  EXPECT_TRUE(s.blocks[1].recurring);
  EXPECT_EQ(s.blocks[1].at, 5u);
  EXPECT_EQ(s.blocks[1].from, 15u);
  EXPECT_EQ(s.blocks[1].until, 45u);
}

TEST(ScenarioParser, OpenEndedEveryResolvesToHorizon) {
  const Script s = parse(
      "name x\nticks 80\n"
      "every 10\n  join 1\nend\n");
  ASSERT_EQ(s.blocks.size(), 1u);
  EXPECT_EQ(s.blocks[0].from, 1u);
  EXPECT_EQ(s.blocks[0].until, 80u);
}

TEST(ScenarioParser, ChordScenarioParses) {
  const Script s = parse(
      "name lossy\nsubstrate chord\nnodes 30\nticks 40\n"
      "at 5\n  fault drop 0.1\n  lookup 10\nend\n");
  EXPECT_EQ(s.substrate, Substrate::kChord);
  ASSERT_EQ(s.blocks[0].events.size(), 2u);
  EXPECT_EQ(s.blocks[0].events[0].kind, Event::Kind::kFault);
  EXPECT_EQ(s.blocks[0].events[0].text, "drop");
  EXPECT_DOUBLE_EQ(s.blocks[0].events[0].value, 0.1);
}

// Sink paths are runner flags (dhtlb_scenario --trace/--metrics), not
// header keys.
TEST(ScenarioParser, TraceAndMetricsHeaderKeys) {
  expect_error("name x\ntrace out/x_trace.json\n", 2, "unknown key 'trace'");
  expect_error("name x\nmetrics out/x_metrics.jsonl\n", 2,
               "unknown key 'metrics'");
}

// --- the promised diagnostics -------------------------------------------

TEST(ScenarioParser, UnknownEventIsLineNumbered) {
  expect_error("name x\nat 5\n  explode 3\nend\n", 3, "unknown event");
}

TEST(ScenarioParser, OutOfOrderAtTicks) {
  expect_error(
      "name x\nat 20\n  join 1\nend\nat 10\n  join 1\nend\n", 5,
      "out-of-order 'at' tick 10");
}

TEST(ScenarioParser, DuplicateHeaderKey) {
  expect_error("name x\nnodes 10\nnodes 20\n", 3, "duplicate key 'nodes'");
}

TEST(ScenarioParser, TrailingGarbageOnEvent) {
  expect_error("name x\nat 5\n  join 3 banana\nend\n", 3,
               "trailing garbage 'banana'");
}

TEST(ScenarioParser, TrailingGarbageOnHeader) {
  expect_error("name x extra\n", 1, "trailing garbage 'extra'");
}

TEST(ScenarioParser, UnknownHeaderKey) {
  expect_error("name x\nflavor vanilla\n", 2, "unknown key 'flavor'");
}

TEST(ScenarioParser, UnterminatedBlock) {
  expect_error("name x\nat 5\n  join 1\n", 2, "unterminated");
}

TEST(ScenarioParser, EmptyBlock) {
  expect_error("name x\nat 5\nend\n", 3, "empty event block");
}

TEST(ScenarioParser, EndWithoutBlock) {
  expect_error("name x\nend\n", 2, "'end' without an open");
}

TEST(ScenarioParser, HeaderAfterBlock) {
  expect_error("name x\nat 5\n  join 1\nend\nnodes 50\n", 5,
               "after the first event block");
}

TEST(ScenarioParser, MissingName) {
  expect_error("nodes 10\n", 1, "missing required key 'name'");
}

// The name becomes the output file BENCH_scenario_<name>.json: a path
// separator or `..` would write outside the output directory.
TEST(ScenarioParser, UnsafeNameIsRejected) {
  expect_error("name x/../../escaped\n", 1,
               "name 'x/../../escaped' may hold only letters, digits, '_' "
               "and '-'");
  expect_error("nodes 10\nname ..\n", 2, "name '..' may hold only");
  expect_error("name a\"b\n", 1, "name 'a\"b' may hold only");
  EXPECT_EQ(parse("name Az_09-x\n").name, "Az_09-x");
}

TEST(ScenarioParser, AtTickZero) {
  expect_error("name x\nat 0\n  join 1\nend\n", 2, "must be >= 1");
}

TEST(ScenarioParser, BadInteger) {
  expect_error("name x\nnodes lots\n", 2, "expected an unsigned integer");
}

// max_sybils is an unsigned: 2^32 + 5 must not wrap to 5.
TEST(ScenarioParser, MaxSybilsAboveUintMax) {
  expect_error("name x\nmax-sybils 4294967301\n", 2, "out of range");
  EXPECT_EQ(parse("name x\nmax-sybils 4294967295\n").params.max_sybils,
            4294967295u);
}

// Counts are bounded by the input limits: one past the limit is a
// line-numbered error, the limit itself parses.  Unbounded, a huge count
// allocates or loops until the process runs out of memory.
TEST(ScenarioParser, NodesHeaderAboveLimit) {
  expect_error("name x\nnodes 4000001\n", 2, "node count 4000001 is out of "
               "range (at most 4000000)");
  // 2^31 nodes would need physical indices past the 32-bit NodeIndex.
  expect_error("name x\nnodes 2147483648\n", 2, "node count 2147483648 is "
               "out of range (at most 4000000)");
  EXPECT_EQ(parse("name x\nnodes 4000000\n").params.initial_nodes,
            sim::Params::kMaxInputNodes);
}

// Every node walks its successor list each decision round; a huge k
// would allocate or loop until the run dies.
TEST(ScenarioParser, SuccessorsHeaderAboveLimit) {
  expect_error("name x\nsuccessors 1000000000000\n", 2,
               "successors 1000000000000 is out of range (at most 64)");
  EXPECT_EQ(parse("name x\nsuccessors 64\n").params.num_successors,
            sim::Params::kMaxSuccessors);
}

TEST(ScenarioParser, TasksHeaderAboveLimit) {
  expect_error("name x\ntasks 18446744073709551615\n", 2,
               "task count 18446744073709551615 is out of range");
  // 10^18 tasks would abort in the task store's reserve().
  expect_error("name x\ntasks 1000000000000000000\n", 2,
               "task count 1000000000000000000 is out of range (at most "
               "100000000)");
  EXPECT_EQ(parse("name x\ntasks 100000000\n").params.total_tasks,
            sim::Params::kMaxInputTasks);
}

TEST(ScenarioParser, JoinCountAboveLimit) {
  expect_error("name x\nat 1\n  join 4000001\nend\n", 3,
               "count 4000001 is out of range");
}

TEST(ScenarioParser, LeaveCountAboveLimit) {
  expect_error("name x\nat 1\n  leave 18446744073709551615\nend\n", 3,
               "is out of range (at most 4000000)");
}

TEST(ScenarioParser, CrashCountAboveLimit) {
  expect_error("name x\nat 1\n  crash 4000001\nend\n", 3,
               "is out of range (at most 4000000)");
}

TEST(ScenarioParser, InjectUniformCountAboveLimit) {
  expect_error(
      "name x\nat 1\n  inject-uniform 18446744073709551615\nend\n", 3,
      "task count 18446744073709551615 is out of range (at most 100000000)");
  EXPECT_EQ(parse("name x\nat 1\n  inject-uniform 100000000\nend\n")
                .blocks[0]
                .events[0]
                .count,
            sim::Params::kMaxInputTasks);
}

TEST(ScenarioParser, InjectHotspotCountAboveLimit) {
  expect_error("name x\nat 1\n  inject-hotspot 100000001 0.5\nend\n", 3,
               "task count 100000001 is out of range");
}

TEST(ScenarioParser, LookupCountAboveLimit) {
  expect_error(
      "name x\nsubstrate chord\nticks 5\nat 1\n  lookup 10000001\nend\n",
      5, "lookup count 10000001 is out of range (at most 10000000)");
}

// The runner loops once per tick up to the horizon, so an unbounded
// `ticks` (or a block tick that needs one) would run until killed.
TEST(ScenarioParser, TicksHeaderAboveLimit) {
  expect_error("name huge\nsubstrate chord\nnodes 8\n"
               "ticks 18446744073709551615\n",
               4,
               "tick horizon 18446744073709551615 is out of range (at most "
               "1000000)");
  EXPECT_EQ(parse("name x\nticks 1000000\n").horizon, kMaxScriptTicks);
}

TEST(ScenarioParser, AtTickAboveLimit) {
  expect_error("name x\nat 1000001\n  join 1\nend\n", 2,
               "tick 1000001 is out of range (at most 1000000)");
  EXPECT_EQ(parse("name x\nat 1000000\n  join 1\nend\n").blocks[0].at,
            kMaxScriptTicks);
}

TEST(ScenarioParser, EveryTicksAboveLimit) {
  expect_error("name x\nevery 1000001 until 5\n  join 1\nend\n", 2,
               "period 1000001 is out of range (at most 1000000)");
  expect_error("name x\nevery 1 from 1000001 until 5\n  join 1\nend\n", 2,
               "from tick 1000001 is out of range (at most 1000000)");
  expect_error(
      "name x\nevery 1 until 18446744073709551615\n  join 1\nend\n", 2,
      "until tick 18446744073709551615 is out of range (at most 1000000)");
  const Script s =
      parse("name x\nevery 1000000 from 1000000 until 1000000\n"
            "  join 1\nend\n");
  EXPECT_EQ(s.blocks[0].until, kMaxScriptTicks);
}

// Numbers follow the one grammar (support/number.hpp): no sign.
TEST(ScenarioParser, SignedCountsAreRejected) {
  expect_error("name x\nnodes +50\n", 2,
               "expected an unsigned integer for node count, got '+50'");
  expect_error("name x\nat 1\n  join -1\nend\n", 3,
               "expected an unsigned integer for count, got '-1'");
}

TEST(ScenarioParser, ChurnRateOutOfRange) {
  expect_error("name x\nchurn 1.5\n", 2, "must be in [0, 1]");
}

// NaN fails both halves of a `v < 0 || v > 1` range test, so every
// numeric token must be rejected as non-finite before any range check.
TEST(ScenarioParser, ChurnRateNaN) {
  expect_error("name x\nchurn nan\n", 2, "expected a finite number");
}

TEST(ScenarioParser, ChurnRateInfinite) {
  expect_error("name x\nchurn inf\n", 2, "expected a finite number");
}

TEST(ScenarioParser, SetChurnNaN) {
  expect_error("name x\nat 5\n  set churn nan\nend\n", 3,
               "expected a finite number");
}

TEST(ScenarioParser, HotspotFractionNaN) {
  expect_error("name x\nat 5\n  inject-hotspot 10 nan\nend\n", 3,
               "expected a finite number");
}

TEST(ScenarioParser, UnknownStrategyName) {
  expect_error("name x\nstrategy banana\n", 2, "unknown strategy 'banana'");
}

TEST(ScenarioParser, UnknownStrategyInEvent) {
  expect_error("name x\nat 5\n  strategy banana\nend\n", 3,
               "unknown strategy 'banana'");
}

TEST(ScenarioParser, SimEventOnChordSubstrate) {
  expect_error(
      "name x\nsubstrate chord\nticks 10\nat 5\n  inject-uniform 10\nend\n",
      5, "not valid on the chord substrate");
}

TEST(ScenarioParser, ChordEventOnSimSubstrate) {
  expect_error("name x\nat 5\n  fault drop 0.1\nend\n", 3,
               "not valid on the sim substrate");
}

TEST(ScenarioParser, SimOnlyHeaderKeyOnChord) {
  expect_error("name x\nsubstrate chord\nticks 10\nchurn 0.1\n", 4,
               "only applies to the sim substrate");
}

TEST(ScenarioParser, ChordNeedsHorizon) {
  expect_error("name x\nsubstrate chord\n", 2, "'ticks' horizon");
}

TEST(ScenarioParser, ChordNodesAboveTheBootstrapLimit) {
  expect_error("name x\nsubstrate chord\nnodes 4097\nticks 10\n", 3,
               "nodes 4097 exceeds the chord bootstrap limit 4096");
  EXPECT_EQ(parse("name x\nsubstrate chord\nnodes 4096\nticks 10\n")
                .params.initial_nodes,
            4096u);
}

TEST(ScenarioParser, OpenEndedEveryNeedsHorizon) {
  expect_error("name x\nevery 10\n  join 1\nend\n", 2, "needs 'until'");
}

TEST(ScenarioParser, EveryUntilBeforeFrom) {
  expect_error("name x\nevery 5 from 50 until 20\n  join 1\nend\n", 2,
               "before it starts");
}

TEST(ScenarioParser, BlockBeyondHorizon) {
  expect_error("name x\nticks 30\nat 40\n  join 1\nend\n", 3,
               "beyond the ticks horizon");
}

TEST(ScenarioParser, FaultProbabilityOutOfRange) {
  expect_error(
      "name x\nsubstrate chord\nticks 10\nat 5\n  fault drop 2\nend\n", 5,
      "must be in [0, 1]");
}

TEST(ScenarioParser, HotspotFractionOutOfRange) {
  expect_error("name x\nat 5\n  inject-hotspot 100 0\nend\n", 3,
               "ring fraction must be in (0, 1]");
}

TEST(ScenarioParser, StreamedProvisioningKeys) {
  const Script s = parse(
      "name x\n"
      "provisioning streamed\n"
      "arrival-ticks 40\n"
      "tasks 1000\n");
  EXPECT_EQ(s.params.provisioning, sim::TaskProvisioning::kStreamed);
  EXPECT_EQ(s.params.arrival_ticks, 40u);
}

TEST(ScenarioParser, ProvisioningDefaultsToPreallocated) {
  const Script s = parse("name x\n");
  EXPECT_EQ(s.params.provisioning, sim::TaskProvisioning::kPreallocated);
  EXPECT_EQ(s.params.arrival_ticks, 0u);
}

TEST(ScenarioParser, UnknownProvisioningMode) {
  expect_error("name x\nprovisioning eager\n", 2,
               "expected preallocated or streamed");
  // The other enum key fails the same way; a misspelt work-measure would
  // otherwise run as one task per tick.
  expect_error("name x\nwork-measure strenght\n", 2,
               "unknown work-measure 'strenght' (expected one or strength)");
}

TEST(ScenarioParser, ArrivalTicksRequiresStreamed) {
  // Params::validate() rejects the combination at end-of-parse.
  EXPECT_THROW(parse("name x\narrival-ticks 10\n"), ParseError);
}

TEST(ScenarioParser, ProvisioningIsSimOnly) {
  expect_error("name x\nsubstrate chord\nticks 10\nprovisioning streamed\n",
               4, "only applies to the sim substrate");
}

// --- the event vocabulary, kind by kind ---------------------------------

// One Event::Kind: the words its diagnostics name it by, its canonical
// line, the substrates it runs on, its usage text, and probes of its
// operands at and just past their limits.  A probe's `error` is the
// whole diagnostic after "test.scn:<line>: ", or "" when it parses.
struct Probe {
  std::string line;
  std::string error;
};
struct KindPin {
  Event::Kind kind;
  std::string words;
  std::string canonical;
  bool sim, chord;
  std::string usage;
  std::vector<Probe> probes;
};

std::vector<KindPin> kind_pins() {
  using K = Event::Kind;
  const auto membership = [](K kind, const std::string& w) {
    return KindPin{kind, w, w + " 3", true, true, w + " <count>",
                   {{w + " 4000000", ""},
                    {w + " 4000001",
                     "count 4000001 is out of range (at most 4000000)"},
                    {w + " 0", w + " count must be >= 1"}}};
  };
  return {
      membership(K::kJoin, "join"),
      membership(K::kLeave, "leave"),
      membership(K::kCrash, "crash"),
      {K::kInjectUniform, "inject-uniform", "inject-uniform 500", true,
       false, "inject-uniform <tasks>",
       {{"inject-uniform 100000000", ""},
        {"inject-uniform 100000001",
         "task count 100000001 is out of range (at most 100000000)"},
        {"inject-uniform 0", "inject-uniform count must be >= 1"}}},
      {K::kInjectHotspot, "inject-hotspot", "inject-hotspot 10 0.125", true,
       false, "inject-hotspot <tasks> <ring-fraction>",
       {{"inject-hotspot 100000000 0.5", ""},
        {"inject-hotspot 100000001 0.5",
         "task count 100000001 is out of range (at most 100000000)"},
        {"inject-hotspot 0 0.5", "inject-hotspot count must be >= 1"},
        {"inject-hotspot 10 1", ""},
        {"inject-hotspot 10 0",
         "hotspot ring fraction must be in (0, 1], got '0'"}}},
      {K::kSetChurn, "set churn", "set churn 0.05", true, false,
       "set churn|threshold <value>",
       {{"set churn 0", ""},
        {"set churn 1", ""},
        {"set churn 1.5", "churn rate must be in [0, 1], got '1.5'"},
        {"set bogus 1",
         "unknown parameter 'bogus' (expected churn or threshold)"}}},
      {K::kSetThreshold, "set threshold", "set threshold 7", true, false,
       "set churn|threshold <value>",
       {{"set threshold 0", ""},
        {"set threshold 18446744073709551615", ""},
        {"set threshold 18446744073709551616",
         "expected an unsigned integer for sybilThreshold, got "
         "'18446744073709551616'"}}},
      {K::kSetStrategy, "strategy", "strategy random-injection", true, false,
       "strategy <name>",
       {{"strategy banana", "unknown strategy 'banana'"}}},
      {K::kFault, "fault", "fault drop 0.1", false, true,
       "fault drop|delay|duplicate <probability>",
       {{"fault delay 0", ""},
        {"fault duplicate 1", ""},
        {"fault drop 1.5", "fault probability must be in [0, 1], got '1.5'"},
        {"fault bogus 0.1",
         "unknown fault kind 'bogus' (expected drop, delay, or duplicate)"}}},
      {K::kLookup, "lookup", "lookup 4", false, true, "lookup <count>",
       {{"lookup 10000000", ""},
        {"lookup 10000001",
         "lookup count 10000001 is out of range (at most 10000000)"},
        {"lookup 0", "lookup count must be >= 1"}}},
  };
}

/// `line` as the only event of a one-block script; the event sits on
/// line 3 (sim) or 5 (chord).
std::string one_event_script(const std::string& line, bool chord) {
  return std::string("name x\n") +
         (chord ? "substrate chord\nticks 5\n" : "") + "at 1\n  " + line +
         "\nend\n";
}

/// The whole diagnostic for `line` as the only event on a substrate, or
/// "" when it parses.
std::string event_error(const std::string& line, bool chord) {
  try {
    Script::parse(one_event_script(line, chord), "test.scn");
    return "";
  } catch (const ParseError& e) {
    return e.what();
  }
}

std::string diagnostic(const std::string& message, bool chord) {
  return message.empty()
             ? ""
             : std::string(chord ? "test.scn:5: " : "test.scn:3: ") +
                   message;
}

TEST(ScenarioParser, EveryEventKindAtItsLimits) {
  const std::vector<KindPin> pins = kind_pins();
  ASSERT_EQ(pins.size(), static_cast<std::size_t>(Event::Kind::kLookup) + 1);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const KindPin& pin = pins[i];
    SCOPED_TRACE(pin.canonical);
    EXPECT_EQ(pin.kind, static_cast<Event::Kind>(i));
    for (const bool chord : {false, true}) {
      const bool runs = chord ? pin.chord : pin.sim;
      if (!runs) {
        EXPECT_EQ(event_error(pin.canonical, chord),
                  diagnostic("event '" + pin.words +
                                 "' is not valid on the " +
                                 (chord ? "chord" : "sim") + " substrate",
                             chord));
        continue;
      }
      const Script s =
          Script::parse(one_event_script(pin.canonical, chord), "test.scn");
      ASSERT_EQ(s.blocks.size(), 1u);
      ASSERT_EQ(s.blocks[0].events.size(), 1u);
      EXPECT_EQ(s.blocks[0].events[0].kind, pin.kind);
      EXPECT_EQ(s.blocks[0].events[0].line, chord ? 5 : 3);
      EXPECT_EQ(format_event(s.blocks[0].events[0]), pin.canonical);
    }
    const bool chord = !pin.sim;
    const std::string short_line =
        pin.canonical.substr(0, pin.canonical.rfind(' '));
    EXPECT_EQ(event_error(short_line, chord),
              diagnostic("missing argument; usage: " + pin.usage, chord));
    EXPECT_EQ(event_error(pin.canonical + " extra", chord),
              diagnostic("trailing garbage 'extra' after " + pin.usage,
                         chord));
    for (const Probe& probe : pin.probes) {
      EXPECT_EQ(event_error(probe.line, chord),
                diagnostic(probe.error, chord))
          << probe.line;
    }
  }
}

// --- line and token splitting ----------------------------------------------
//
// Lines split on '\n' alone; tokens split on exactly the whitespace of
// `>>` in the classic locale: space, \t, \n, \v, \f and \r.  So a CRLF
// file parses like its LF twin, and line numbers count '\n's.

TEST(ScenarioParser, CrlfLineEndingsParseLikeLf) {
  const Script s = parse(
      "name crlf\r\nnodes 50\r\n\r\nat 5\r\n  join 2\r\nend\r\n");
  EXPECT_EQ(s.name, "crlf");
  EXPECT_EQ(s.params.initial_nodes, 50u);
  ASSERT_EQ(s.blocks.size(), 1u);
  EXPECT_EQ(s.blocks[0].line, 4);
  ASSERT_EQ(s.blocks[0].events.size(), 1u);
  EXPECT_EQ(s.blocks[0].events[0].count, 2u);
  EXPECT_EQ(s.blocks[0].events[0].line, 5);
  expect_error("name x\r\nat 5\r\n  explode 3\r\nend\r\n", 3,
               "unknown event 'explode'");
}

TEST(ScenarioParser, TabsVerticalTabsAndFormFeedsSeparateTokens) {
  const Script s = parse(
      "\tname\tws \t\n\vnodes\f\v60\r\n\fat\t7\n\t\vjoin\f3\t\nend\n");
  EXPECT_EQ(s.name, "ws");
  EXPECT_EQ(s.params.initial_nodes, 60u);
  ASSERT_EQ(s.blocks.size(), 1u);
  EXPECT_EQ(s.blocks[0].at, 7u);
  ASSERT_EQ(s.blocks[0].events.size(), 1u);
  EXPECT_EQ(s.blocks[0].events[0].count, 3u);
  EXPECT_EQ(s.blocks[0].events[0].line, 4);
  // A byte outside that set stays inside its token.
  expect_error("name a\x01" "b\n", 1, "may hold only letters");
}

TEST(ScenarioParser, LastLineNeedsNoNewline) {
  const Script s = parse("name tail\nat 5\n  join 1\nend");
  ASSERT_EQ(s.blocks.size(), 1u);
  EXPECT_EQ(s.blocks[0].events.size(), 1u);
  expect_error("name x\nat 5\n  explode 3", 3, "unknown event 'explode'");
  expect_error("name x\nnodes 10\nnodes 20", 3, "duplicate key 'nodes'");
}

TEST(ScenarioParser, BlankTrailingLinesAreIgnored) {
  const Script s = parse("name blank\nat 5\n  join 1\nend\n\n \t\n\r\n\n");
  ASSERT_EQ(s.blocks.size(), 1u);
  expect_error("name x\nat 5\n  join 1\n\n\n\n", 2, "unterminated");
  expect_error("\n\n\r\nname x\n\t\nflavor vanilla\n\n", 6,
               "unknown key 'flavor'");
}

TEST(ScenarioParser, LoadMissingFileThrows) {
  EXPECT_THROW(Script::load("/nonexistent/path.scn"), std::runtime_error);
}

}  // namespace
}  // namespace dhtlb::scenario
