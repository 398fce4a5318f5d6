// Parser coverage for the scenario script format: the happy path and —
// load-bearing for usability — every diagnostic the format promises:
// line-numbered errors instead of crashes for unknown events,
// out-of-order `at` ticks, duplicate header keys, and trailing garbage.
#include "scenario/script.hpp"

#include <gtest/gtest.h>

#include <string>

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

TEST(ScenarioParser, TraceAndMetricsHeaderKeys) {
  const Script s = parse(
      "name x\nticks 10\n"
      "trace out/x_trace.json\n"
      "metrics out/x_metrics.jsonl\n"
      "at 5\n  join 1\nend\n");
  EXPECT_EQ(s.trace_path, "out/x_trace.json");
  EXPECT_EQ(s.metrics_path, "out/x_metrics.jsonl");
}

TEST(ScenarioParser, TraceAndMetricsDefaultToDisabled) {
  const Script s = parse("name x\nticks 10\nat 5\n  join 1\nend\n");
  EXPECT_TRUE(s.trace_path.empty());
  EXPECT_TRUE(s.metrics_path.empty());
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

TEST(ScenarioParser, DuplicateTraceKey) {
  expect_error("name x\ntrace a.json\ntrace b.json\n", 3,
               "duplicate key 'trace'");
}

TEST(ScenarioParser, TraceWithoutFileIsAnError) {
  expect_error("name x\ntrace\n", 2, "trace <file>");
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

TEST(ScenarioParser, AtTickZero) {
  expect_error("name x\nat 0\n  join 1\nend\n", 2, "must be >= 1");
}

TEST(ScenarioParser, BadInteger) {
  expect_error("name x\nnodes lots\n", 2, "expected an unsigned integer");
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
}

TEST(ScenarioParser, ArrivalTicksRequiresStreamed) {
  // Params::validate() rejects the combination at end-of-parse.
  EXPECT_THROW(parse("name x\narrival-ticks 10\n"), ParseError);
}

TEST(ScenarioParser, ProvisioningIsSimOnly) {
  expect_error("name x\nsubstrate chord\nticks 10\nprovisioning streamed\n",
               4, "only applies to the sim substrate");
}

TEST(ScenarioParser, LoadMissingFileThrows) {
  EXPECT_THROW(Script::load("/nonexistent/path.scn"), std::runtime_error);
}

}  // namespace
}  // namespace dhtlb::scenario
