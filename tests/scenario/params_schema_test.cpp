// The Params field table is the one text <-> field mapping: a `.scn`
// header line and Params::set must accept and reject exactly the same
// texts (with the same wording), and the canonical emitter must
// round-trip every field, at its limit too.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "sim/params.hpp"

namespace dhtlb::scenario {
namespace {

using Grammar = sim::ParamField::Grammar;

/// The text of the field's largest value.
std::string max_text(const sim::ParamField& field) {
  switch (field.grammar) {
    case Grammar::kCount:
      return std::to_string(field.max);
    case Grammar::kProbability:
      return "1";
    case Grammar::kBool:
    case Grammar::kEnum:
      break;
  }
  return std::string(field.names.back());
}

/// Probe texts: the minimum, the maximum, one past it, garbage and
/// signed spellings.  None has whitespace, so each is one `.scn` token.
std::vector<std::string> probes(const sim::ParamField& field) {
  switch (field.grammar) {
    case Grammar::kCount: {
      const std::string past =
          field.max == std::numeric_limits<std::uint64_t>::max()
              ? "18446744073709551616"
              : std::to_string(field.max + 1);
      return {"0", max_text(field), past, "lots", "+1", "-1", "0x10", "1e3"};
    }
    case Grammar::kProbability:
      return {"0", "1", "1.0000001", "-0.5", "+0.5", "nan", "inf", "1e999",
              "lots", "0x1p-3"};
    case Grammar::kBool:
    case Grammar::kEnum:
      break;
  }
  return {std::string(field.names.front()), max_text(field), "lots", "1",
          "+" + std::string(field.names.front())};
}

/// A one-key header; streamed-only keys need streamed provisioning to
/// pass Params::validate.
std::string header(const sim::ParamField& field, const std::string& text) {
  return std::string("name x\n") +
         (field.streamed_only ? "provisioning streamed\n" : "") +
         std::string(field.key) + " " + text + "\n";
}

TEST(ParamsSchema, TableHasTheTwelveKeysOnce) {
  const std::vector<std::string> expected = {
      "nodes", "successors", "tasks", "churn", "heterogeneous",
      "work-measure", "threshold", "max-sybils", "decision-period",
      "provisioning", "arrival-ticks", "mark-failed-ranges"};
  std::vector<std::string> keys;
  for (const sim::ParamField& field : sim::param_fields()) {
    keys.emplace_back(field.key);
    EXPECT_EQ(sim::find_param_field(field.key), &field);
  }
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(sim::find_param_field("ticks"), nullptr);
  sim::Params p;
  try {
    p.set("flavor", "vanilla");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown key 'flavor'");
  }
}

TEST(ParamsSchema, DefaultsFormatAndSetBackUnchanged) {
  const sim::Params defaults;
  for (const sim::ParamField& field : sim::param_fields()) {
    sim::Params p;
    p.set(field.key, defaults.format(field.key));
    EXPECT_EQ(p.describe(), defaults.describe()) << field.key;
    EXPECT_EQ(p.format(field.key), defaults.format(field.key)) << field.key;
  }
}

TEST(ParamsSchema, HeaderAndSetAcceptAndRejectTheSameTexts) {
  for (const sim::ParamField& field : sim::param_fields()) {
    const int line = field.streamed_only ? 3 : 2;
    for (const std::string& text : probes(field)) {
      SCOPED_TRACE(std::string(field.key) + " " + text);
      sim::Params p;
      std::string set_error;
      try {
        p.set(field.key, text);
      } catch (const std::invalid_argument& e) {
        set_error = e.what();
      }
      try {
        const Script s = Script::parse(header(field, text), "test.scn");
        EXPECT_EQ(set_error, "") << "the header accepted it";
        EXPECT_EQ(s.params.format(field.key), p.format(field.key));
      } catch (const ParseError& e) {
        if (set_error.empty()) {
          // Grammar and limit passed; only Params::validate may object
          // (e.g. `nodes 0`), at the last line.
          EXPECT_NE(std::string(e.what()).find("Params: "),
                    std::string::npos)
              << e.what();
        } else {
          EXPECT_EQ(e.line(), line);
          EXPECT_EQ(e.what(),
                    "test.scn:" + std::to_string(line) + ": " + set_error);
        }
      }
    }
  }
}

// A `.scn` token never carries whitespace, but a flag value or a
// programmatic set() can: padding is outside the grammar.
TEST(ParamsSchema, SetRejectsPaddedTexts) {
  for (const sim::ParamField& field : sim::param_fields()) {
    const std::string text = max_text(field);
    for (const std::string& padded : {" " + text, text + " ", "\t" + text}) {
      sim::Params p;
      EXPECT_THROW(p.set(field.key, padded), std::invalid_argument)
          << field.key << " '" << padded << "'";
    }
  }
}

TEST(ParamsSchema, EmitParseRoundTripsEveryFieldAtItsMaximum) {
  for (const sim::ParamField& field : sim::param_fields()) {
    SCOPED_TRACE(std::string(field.key));
    Script script;
    script.name = "x";
    if (field.streamed_only) script.params.set("provisioning", "streamed");
    script.params.set(field.key, max_text(field));
    const std::string emitted = emit_script(script);
    const Script parsed = Script::parse(emitted, "emit.scn");
    EXPECT_EQ(parsed.params.format(field.key), max_text(field));
    EXPECT_EQ(emit_script(parsed), emitted);
  }
}

}  // namespace
}  // namespace dhtlb::scenario
