// Scenario-fuzzer unit suite: generator determinism, the
// generate → parse → re-emit byte-identity gate, per-profile event-kind
// coverage over a 100-seed sweep, shrinker convergence + predicate
// preservation, the `until 0` grammar fix, and the end-to-end
// injected-bug campaign (the runner must catch a corrupted world and
// shrink the failing script to <= 5 blocks).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/fuzz.hpp"
#include "scenario/script.hpp"
#include "support/rng.hpp"

namespace dhtlb::scenario {
namespace {

using Kind = Event::Kind;

constexpr std::uint64_t kSweepSeeds = 100;

// The per-profile vocabulary the generator promises to draw from
// (src/scenario/fuzz.cpp profile_specs) — the coverage sweep asserts
// every kind actually appears, so a weight-table typo cannot silently
// drop an event family from the campaign.
std::set<Kind> expected_kinds(std::string_view profile) {
  if (profile == "churn-burst") {
    return {Kind::kSetChurn, Kind::kJoin, Kind::kLeave, Kind::kInjectUniform};
  }
  if (profile == "storm") {
    return {Kind::kJoin, Kind::kLeave, Kind::kCrash};
  }
  if (profile == "hotspot") {
    return {Kind::kInjectHotspot, Kind::kInjectUniform};
  }
  if (profile == "strategy-swap") {
    return {Kind::kSetStrategy, Kind::kSetThreshold, Kind::kJoin,
            Kind::kInjectUniform};
  }
  if (profile == "chord-faults") {
    return {Kind::kFault, Kind::kLookup, Kind::kJoin, Kind::kLeave,
            Kind::kCrash};
  }
  if (profile == "streamed") {
    return {Kind::kJoin, Kind::kLeave, Kind::kCrash, Kind::kInjectUniform,
            Kind::kInjectHotspot};
  }
  if (profile == "mixed") {
    return {Kind::kJoin,          Kind::kLeave,      Kind::kCrash,
            Kind::kInjectUniform, Kind::kInjectHotspot, Kind::kSetChurn,
            Kind::kSetThreshold,  Kind::kSetStrategy};
  }
  ADD_FAILURE() << "no expectation for profile " << profile;
  return {};
}

TEST(FuzzGenerator, ProfileListing) {
  const std::vector<std::string_view> profiles = fuzz_profiles();
  const std::vector<std::string_view> expected = {
      "churn-burst", "storm",    "hotspot", "strategy-swap",
      "chord-faults", "streamed", "mixed"};
  EXPECT_EQ(profiles, expected);
  for (const std::string_view profile : profiles) {
    EXPECT_TRUE(is_fuzz_profile(profile)) << profile;
  }
  EXPECT_FALSE(is_fuzz_profile("no-such-profile"));
  EXPECT_THROW(generate_script("no-such-profile", 1), std::invalid_argument);
}

// Same (profile, seed) → byte-identical text, every time; different
// seeds must not collapse onto one script.
TEST(FuzzGenerator, DeterministicFromProfileAndSeed) {
  for (const std::string_view profile : fuzz_profiles()) {
    const std::string once = emit_script(generate_script(profile, 7));
    const std::string twice = emit_script(generate_script(profile, 7));
    EXPECT_EQ(once, twice) << profile;
    EXPECT_NE(once, emit_script(generate_script(profile, 8))) << profile;
  }
}

// The tentpole grammar contract: canonical text parses, and re-emitting
// the parsed form reproduces the text byte for byte.  Any drift between
// generator, emitter and parser shows up here across the sweep.
TEST(FuzzGenerator, GenerateParseReEmitIsByteIdentical) {
  for (const std::string_view profile : fuzz_profiles()) {
    for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
      const Script script = generate_script(profile, seed);
      const std::string text = emit_script(script);
      Script parsed;
      ASSERT_NO_THROW(parsed = Script::parse(text, "<fuzz>"))
          << profile << " seed " << seed << "\n" << text;
      EXPECT_EQ(emit_script(parsed), text) << profile << " seed " << seed;
    }
  }
}

TEST(FuzzGenerator, EveryEventKindAppearsAcrossSweep) {
  for (const std::string_view profile : fuzz_profiles()) {
    std::set<Kind> seen;
    for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
      for (const Block& block : generate_script(profile, seed).blocks) {
        for (const Event& event : block.events) seen.insert(event.kind);
      }
    }
    EXPECT_EQ(seen, expected_kinds(profile)) << profile;
  }
}

// Regression for the grammar-drift fix: `until 0` used to parse into
// the internal open-ended sentinel, silently turning a bounded block
// into a run-forever one.  It must now be a parse error.
TEST(FuzzGenerator, UntilZeroIsRejected) {
  const std::string text =
      "name until_zero\n"
      "nodes 8\n"
      "tasks 100\n"
      "ticks 20\n"
      "\n"
      "every 5 from 1 until 0\n"
      "  join 1\n"
      "end\n";
  EXPECT_THROW(Script::parse(text, "<test>"), ParseError);
}

// Shrinker contract on a synthetic failure: a marker event is planted
// in a generated script; the predicate "script still contains the
// marker" must survive shrinking, and the result must be the minimal
// one-block, one-event script.
TEST(FuzzShrinker, ConvergesAndPreservesPredicate) {
  Script script = generate_script("mixed", 3);
  ASSERT_GE(script.blocks.size(), 3u);
  Event marker;
  marker.kind = Kind::kInjectHotspot;
  marker.count = 777;
  marker.value = 0.25;
  script.blocks.back().events.push_back(marker);

  const auto has_marker = [](const Script& s) {
    for (const Block& block : s.blocks) {
      for (const Event& event : block.events) {
        if (event.kind == Kind::kInjectHotspot && event.count == 777) {
          return true;
        }
      }
    }
    return false;
  };
  ASSERT_TRUE(has_marker(script));

  const Script shrunk = shrink_script(script, has_marker);
  EXPECT_TRUE(has_marker(shrunk));
  ASSERT_EQ(shrunk.blocks.size(), 1u);
  ASSERT_EQ(shrunk.blocks[0].events.size(), 1u);
  EXPECT_EQ(shrunk.blocks[0].events[0].kind, Kind::kInjectHotspot);
  EXPECT_EQ(shrunk.blocks[0].events[0].count, 777u);
  // Every shrink candidate is revalidated through parse(emit(...)), so
  // the minimized script must itself round-trip.
  EXPECT_NO_THROW(Script::parse(emit_script(shrunk), "<shrunk>"));
}

// A predicate the input does not satisfy means there is nothing to
// shrink: the script comes back unchanged.
TEST(FuzzShrinker, ReturnsInputWhenPredicateRejectsIt) {
  const Script script = generate_script("storm", 5);
  const Script same =
      shrink_script(script, [](const Script&) { return false; });
  EXPECT_EQ(emit_script(same), emit_script(script));
}

// End-to-end campaign oracle: run the real dhtlb_fuzz binary with the
// test-only world corruptor armed (DHTLB_FUZZ_CORRUPT).  The batch must
// FAIL, and the minimized repro it writes must be <= 5 blocks — the
// acceptance bar for "an injected invariant bug is caught and shrunk".
TEST(FuzzCampaign, InjectedCorruptionIsCaughtAndShrunk) {
  namespace fs = std::filesystem;
  const fs::path out_dir =
      fs::path(::testing::TempDir()) / "dhtlb_fuzz_corruptor";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);

  const std::string cmd =
      std::string("DHTLB_FUZZ_CORRUPT=3 '") + DHTLB_FUZZ_BIN +
      "' --profile mixed --seed 99 --count 1 --audit --threads-matrix 1"
      " --quiet --out-dir '" +
      out_dir.string() + "' > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, 0) << "corrupted batch must fail";

  fs::path minimized;
  fs::path repro;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".minimized.scn")) minimized = entry.path();
    if (name.ends_with(".REPRO.txt")) repro = entry.path();
  }
  ASSERT_FALSE(minimized.empty()) << "no minimized repro in " << out_dir;
  EXPECT_FALSE(repro.empty()) << "no repro note in " << out_dir;

  const Script script = Script::load(minimized.string());
  EXPECT_LE(script.blocks.size(), 5u)
      << "shrinker left " << script.blocks.size() << " blocks";
  fs::remove_all(out_dir);
}

// A failure artifact that cannot be written fails the batch with a
// diagnostic, and the runner must not claim it wrote the artifacts.
// The batch is the corrupted one above; its REPRO.txt path is taken by a
// directory.
TEST(FuzzCampaign, UnwritableArtifactIsReportedNotClaimed) {
  namespace fs = std::filesystem;
  const fs::path out_dir =
      fs::path(::testing::TempDir()) / "dhtlb_fuzz_unwritable";
  fs::remove_all(out_dir);
  const std::string name =
      generate_script("mixed", support::mix_seed(99, 0)).name;
  const fs::path repro = out_dir / (name + ".REPRO.txt");
  fs::create_directories(repro);
  const fs::path log = out_dir / "log.txt";

  const std::string cmd =
      std::string("DHTLB_FUZZ_CORRUPT=3 '") + DHTLB_FUZZ_BIN +
      "' --profile mixed --seed 99 --count 1 --audit --threads-matrix 1"
      " --quiet --out-dir '" +
      out_dir.string() + "' > '" + log.string() + "' 2>&1";
  EXPECT_NE(std::system(cmd.c_str()), 0) << "corrupted batch must fail";

  std::ifstream in(log);
  std::stringstream output;
  output << in.rdbuf();
  EXPECT_NE(output.str().find("dhtlb_fuzz: cannot write " + repro.string()),
            std::string::npos)
      << output.str();
  EXPECT_EQ(output.str().find("wrote"), std::string::npos) << output.str();
  fs::remove_all(out_dir);
}

}  // namespace
}  // namespace dhtlb::scenario
