// End-to-end observability contract over every canned scenario (each
// scenarios/*.scn, so a new script is covered without a list edit):
//
//   1. Determinism — the same (script, seed) run with sinks attached on
//      a one-thread engine and on an eight-shard-worker engine produces
//      byte-identical trace and metrics output: the engine's thread
//      count never leaks into the observability channels.
//   2. Schema validity — the trace is a structurally well-formed Chrome
//      trace_event document (header, one event per line, required keys,
//      known phases, tick-monotone timestamps) and every metrics row is
//      a JSONL object with the documented keys in alphabetical order.
//   3. Null-sink no-op — attaching sinks never changes the
//      ScenarioResult, so committed goldens are observation-invariant.
//
// DHTLB_SCENARIO_DIR is injected by the build and points at the
// checked-in scenarios/ directory.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/script.hpp"
#include "scenario/vm.hpp"
#include "sim/engine.hpp"

namespace dhtlb::scenario {
namespace {

struct SinkOutput {
  std::string trace;
  std::string metrics;
  ScenarioResult result;
};

/// Runs `script` with both sinks attached on an engine of `threads`
/// workers (the sim substrate; the chord substrate always runs serially).
SinkOutput run_with_sinks(const Script& script, std::uint64_t seed,
                          std::size_t threads = 1) {
  std::ostringstream trace_out;
  std::ostringstream metrics_out;
  SinkOutput out;
  {
    obs::TraceSink trace(trace_out);
    obs::MetricsRegistry metrics(metrics_out);
    ObsSinks sinks;
    sinks.trace = &trace;
    sinks.metrics = &metrics;
    sinks.configure_engine = [threads](sim::Engine& engine) {
      engine.set_threads(threads);
    };
    out.result = run_scenario(script, seed, /*audit=*/false, sinks);
    trace.close();
    metrics.flush();
  }
  out.trace = trace_out.str();
  out.metrics = metrics_out.str();
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

/// "" when equal, else the first differing line of each, for a readable
/// failure on traces too long to diff whole.
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return "";
  const std::vector<std::string> la = lines_of(a);
  const std::vector<std::string> lb = lines_of(b);
  std::size_t i = 0;
  while (i < la.size() && i < lb.size() && la[i] == lb[i]) ++i;
  return "first difference at line " + std::to_string(i + 1) + ":\n  " +
         (i < la.size() ? la[i] : "<end>") + "\n  " +
         (i < lb.size() ? lb[i] : "<end>");
}

/// Every canned scenario name (scenarios/*.scn), sorted.
std::vector<std::string> canned_scenarios() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(DHTLB_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class CannedScenarioObservability
    : public ::testing::TestWithParam<std::string> {
 protected:
  Script load_script() const {
    return Script::load(std::string(DHTLB_SCENARIO_DIR) + "/" + GetParam() +
                        ".scn");
  }
};

TEST_P(CannedScenarioObservability, TraceAndMetricsAreByteDeterministic) {
  const Script script = load_script();
  const std::uint64_t seed = resolve_seed(script, false, 0, 1);
  const SinkOutput serial = run_with_sinks(script, seed, 1);
  const SinkOutput sharded = run_with_sinks(script, seed, 8);
  EXPECT_EQ(first_difference(serial.trace, sharded.trace), "")
      << "trace differs between 1 and 8 engine threads";
  EXPECT_EQ(first_difference(serial.metrics, sharded.metrics), "")
      << "metrics differ between 1 and 8 engine threads";
}

TEST_P(CannedScenarioObservability, TraceIsStructurallyValidChromeJson) {
  const Script script = load_script();
  const std::uint64_t seed = resolve_seed(script, false, 0, 1);
  const SinkOutput out = run_with_sinks(script, seed);

  const std::vector<std::string> lines = lines_of(out.trace);
  ASSERT_GE(lines.size(), 3u) << "header, >=1 event, footer";
  EXPECT_EQ(lines.front(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");

  std::uint64_t last_tick_us = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    // Every event line: JSON object, optionally comma-continued.
    ASSERT_FALSE(line.empty()) << "line " << i;
    const std::string body =
        line.back() == ',' ? line.substr(0, line.size() - 1) : line;
    ASSERT_EQ(body.front(), '{') << "line " << i << ": " << line;
    ASSERT_EQ(body.back(), '}') << "line " << i << ": " << line;
    // Required keys, in the fixed emission order.
    const std::size_t name_pos = body.find("\"name\":\"");
    const std::size_t cat_pos = body.find("\"cat\":\"");
    const std::size_t ph_pos = body.find("\"ph\":\"");
    const std::size_t ts_pos = body.find("\"ts\":");
    ASSERT_NE(name_pos, std::string::npos) << line;
    ASSERT_NE(cat_pos, std::string::npos) << line;
    ASSERT_NE(ph_pos, std::string::npos) << line;
    ASSERT_NE(ts_pos, std::string::npos) << line;
    EXPECT_LT(name_pos, cat_pos);
    EXPECT_LT(cat_pos, ph_pos);
    EXPECT_LT(ph_pos, ts_pos);
    // Known phases only.
    const char phase = body[ph_pos + 6];
    EXPECT_TRUE(phase == 'i' || phase == 'X' || phase == 'C')
        << "unknown phase '" << phase << "' in " << line;
    // pid/tid close every event.
    EXPECT_NE(body.find("\"pid\":1,\"tid\":1}"), std::string::npos) << line;
    // Timestamps are tick-derived and never go backwards tick-to-tick:
    // check tick monotonicity at one-second granularity (complete spans
    // are stamped at the tick start, instants at tick + seq).
    const std::uint64_t ts = std::stoull(body.substr(ts_pos + 5));
    const std::uint64_t tick_us = ts / 1000000u * 1000000u;
    if (phase != 'X') {
      EXPECT_GE(tick_us, last_tick_us) << line;
    }
    last_tick_us = std::max(last_tick_us, tick_us);
  }
}

TEST_P(CannedScenarioObservability, MetricsRowsMatchTheDocumentedSchema) {
  const Script script = load_script();
  const std::uint64_t seed = resolve_seed(script, false, 0, 1);
  const SinkOutput out = run_with_sinks(script, seed);

  const std::vector<std::string> lines = lines_of(out.metrics);
  ASSERT_FALSE(lines.empty());
  std::uint64_t last_tick = 0;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    // Keys in alphabetical order: (le,) metric, tick, type, unit, value.
    const std::size_t le_pos = line.find("\"le\":");
    const std::size_t metric_pos = line.find("\"metric\":\"");
    const std::size_t tick_pos = line.find("\"tick\":");
    const std::size_t type_pos = line.find("\"type\":\"");
    const std::size_t unit_pos = line.find("\"unit\":\"");
    const std::size_t value_pos = line.find("\"value\":");
    ASSERT_NE(metric_pos, std::string::npos) << line;
    ASSERT_NE(tick_pos, std::string::npos) << line;
    ASSERT_NE(type_pos, std::string::npos) << line;
    ASSERT_NE(unit_pos, std::string::npos) << line;
    ASSERT_NE(value_pos, std::string::npos) << line;
    if (le_pos != std::string::npos) {
      EXPECT_LT(le_pos, metric_pos) << line;
    }
    EXPECT_LT(metric_pos, tick_pos);
    EXPECT_LT(tick_pos, type_pos);
    EXPECT_LT(type_pos, unit_pos);
    EXPECT_LT(unit_pos, value_pos);
    // type is one of the three instrument kinds; `le` only appears on
    // histogram bucket rows.
    const bool is_counter =
        line.find("\"type\":\"counter\"") != std::string::npos;
    const bool is_gauge = line.find("\"type\":\"gauge\"") != std::string::npos;
    const bool is_histogram =
        line.find("\"type\":\"histogram\"") != std::string::npos;
    EXPECT_TRUE(is_counter || is_gauge || is_histogram) << line;
    if (le_pos != std::string::npos) {
      EXPECT_TRUE(is_histogram) << line;
    }
    // Ticks are non-decreasing through the file (one block per tick).
    const std::uint64_t tick = std::stoull(line.substr(tick_pos + 7));
    EXPECT_GE(tick, last_tick) << line;
    last_tick = tick;
  }
}

TEST_P(CannedScenarioObservability, AttachingSinksNeverChangesResults) {
  const Script script = load_script();
  const std::uint64_t seed = resolve_seed(script, false, 0, 1);
  const ScenarioResult plain = run_scenario(script, seed);
  const SinkOutput observed = run_with_sinks(script, seed);
  ASSERT_EQ(plain.records.size(), observed.result.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    EXPECT_EQ(plain.records[i].metric, observed.result.records[i].metric);
    EXPECT_EQ(plain.records[i].value, observed.result.records[i].value)
        << plain.records[i].metric;
  }
}

/// The names of a trace's `scenario`-category instants, in trace order.
std::vector<std::string> scenario_instants(const std::string& trace) {
  std::vector<std::string> names;
  for (const std::string& line : lines_of(trace)) {
    if (line.find("\"cat\":\"scenario\"") == std::string::npos) continue;
    const std::size_t start = line.find("\"name\":\"") + 8;
    names.push_back(line.substr(start, line.find('"', start) - start));
  }
  return names;
}

// Each event kind's trace instant name, one script per substrate with
// every kind it runs, against the `scenario` row of OBSERVABILITY.md's
// instant vocabulary.
TEST(ScenarioTraceLabels, EveryEventKindNamesItsInstant) {
  const Script sim_script = Script::parse(
      "name labels\nnodes 16\ntasks 200\nticks 3\nat 1\n"
      "  join 1\n  leave 1\n  crash 1\n  inject-uniform 5\n"
      "  inject-hotspot 5 0.5\n  set churn 0.01\n  set threshold 1\n"
      "  strategy random-injection\nend\n",
      "labels.scn");
  const Script chord_script = Script::parse(
      "name labels\nsubstrate chord\nnodes 8\nticks 2\nat 1\n"
      "  fault drop 0\n  lookup 1\nend\n",
      "labels.scn");
  std::vector<std::string> names =
      scenario_instants(run_with_sinks(sim_script, 1).trace);
  for (const std::string& name :
       scenario_instants(run_with_sinks(chord_script, 1).trace)) {
    names.push_back(name);
  }
  const std::vector<std::string> expected = {
      "scripted_join",  "scripted_leave", "scripted_crash",
      "inject_uniform", "inject_hotspot", "set_churn",
      "set_threshold",  "set_strategy",   "set_fault",
      "scripted_lookup"};
  EXPECT_EQ(names, expected);

  std::ifstream doc(std::string(DHTLB_SCENARIO_DIR) + "/../OBSERVABILITY.md");
  ASSERT_TRUE(doc) << "OBSERVABILITY.md not found";
  std::string documented;
  for (std::string line; std::getline(doc, line);) {
    if (line.starts_with("| `scenario` | ")) {
      documented = line.substr(15, line.find(" |", 15) - 15);
    }
  }
  std::string listed;
  for (const std::string& name : expected) {
    listed += (listed.empty() ? "`" : ", `") + name + "`";
  }
  EXPECT_EQ(documented, listed);
}

INSTANTIATE_TEST_SUITE_P(AllCanned, CannedScenarioObservability,
                         ::testing::ValuesIn(canned_scenarios()));

}  // namespace
}  // namespace dhtlb::scenario
