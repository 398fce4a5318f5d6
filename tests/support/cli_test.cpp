#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dhtlb::support {
namespace {

CliParser sample_parser() {
  CliParser cli;
  cli.add_flag("nodes", "n", "1000", "network size");
  cli.add_flag("churn", "rate", "0", "churn rate");
  cli.add_flag("het", "", "", "heterogeneous");
  cli.add_flag("snapshots", "list", "", "ticks");
  return cli;
}

bool parse(CliParser& cli, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_u64("nodes"), 1000u);
  EXPECT_EQ(cli.get("churn"), "0");
  EXPECT_FALSE(cli.get_bool("het"));
  EXPECT_FALSE(cli.has("nodes"));
}

TEST(Cli, SpaceAndEqualsForms) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "42", "--churn=0.5"}));
  EXPECT_EQ(cli.get_u64("nodes"), 42u);
  EXPECT_EQ(cli.get("churn"), "0.5");
  EXPECT_TRUE(cli.has("nodes"));
}

TEST(Cli, BooleanForms) {
  CliParser a = sample_parser();
  ASSERT_TRUE(parse(a, {"--het"}));
  EXPECT_TRUE(a.get_bool("het"));
  CliParser b = sample_parser();
  ASSERT_TRUE(parse(b, {"--het=false"}));
  EXPECT_FALSE(b.get_bool("het"));
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli = sample_parser();
  EXPECT_FALSE(parse(cli, {"--bogus", "1"}));
  EXPECT_NE(cli.error().find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  CliParser cli = sample_parser();
  EXPECT_FALSE(parse(cli, {"--nodes"}));
  EXPECT_NE(cli.error().find("needs a value"), std::string::npos);
}

TEST(Cli, RepeatedFlagFails) {
  CliParser cli = sample_parser();
  EXPECT_FALSE(parse(cli, {"--nodes", "1", "--nodes", "2"}));
}

TEST(Cli, PositionalsCollected) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"alpha", "--nodes", "5", "beta"}));
  EXPECT_EQ(cli.positionals(),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Cli, U64ListParsing) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"--snapshots", "0,5,35"}));
  EXPECT_EQ(cli.get_u64_list("snapshots"),
            (std::vector<std::uint64_t>{0, 5, 35}));
  CliParser empty = sample_parser();
  ASSERT_TRUE(parse(empty, {}));
  EXPECT_TRUE(empty.get_u64_list("snapshots").empty());
}

TEST(Cli, TypeErrorsThrow) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "abc"}));
  EXPECT_THROW((void)cli.get_u64("nodes"), std::invalid_argument);
}

TEST(Cli, NegativeIntegersThrowNamingFlagAndValue) {
  // strtoull would negate "-1" into 2^64 - 1.
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "-1", "--snapshots", "0,-5,35"}));
  try {
    (void)cli.get_u64("nodes");
    FAIL() << "--nodes -1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--nodes: negative value: -1");
  }
  try {
    (void)cli.get_u64_list("snapshots");
    FAIL() << "--snapshots item -5 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--snapshots: negative value: -5");
  }
  CliParser spaced = sample_parser();
  ASSERT_TRUE(parse(spaced, {"--nodes", " -0"}));
  EXPECT_THROW((void)spaced.get_u64("nodes"), std::invalid_argument);
}

TEST(Cli, OutOfRangeIntegersThrowNamingFlagAndValue) {
  // strtoull would saturate these to 2^64 - 1.
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {"--nodes", "99999999999999999999", "--snapshots",
                          "1,18446744073709551616"}));
  try {
    (void)cli.get_u64("nodes");
    FAIL() << "--nodes 99999999999999999999 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--nodes: out of range: 99999999999999999999");
  }
  try {
    (void)cli.get_u64_list("snapshots");
    FAIL() << "--snapshots item 2^64 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--snapshots: out of range: 18446744073709551616");
  }
  // The largest u64 itself still parses.
  CliParser max = sample_parser();
  ASSERT_TRUE(parse(max, {"--nodes", "18446744073709551615"}));
  EXPECT_EQ(max.get_u64("nodes"), 18446744073709551615u);
}

// The one number grammar: plain decimal digits, nothing around them.
TEST(Cli, SignedAndPaddedNumbersAreRejectedNamingTheFlag) {
  const auto message = [](const auto& get) -> std::string {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  const char* argv[] = {"prog", "+5", " 5", "5 "};
  for (int index = 1; index < 4; ++index) {
    const std::string raw = argv[index];
    CliParser cli = sample_parser();
    ASSERT_TRUE(parse(cli, {"--nodes", argv[index]}));
    EXPECT_EQ(message([&] { (void)cli.get_u64("nodes"); }),
              "--nodes: not an integer: " + raw);
    EXPECT_EQ(message([&] { (void)positional_count(4, argv, index, "n", 7); }),
              "n: not an integer: " + raw);
  }
}

TEST(Cli, PositionalCountsAreCheckedAndNonZero) {
  const char* argv[] = {"prog", "250", "x", "-5", "0",
                        "99999999999999999999"};
  constexpr int argc = 6;
  EXPECT_EQ(positional_count(argc, argv, 1, "nodes", 7), 250u);
  EXPECT_EQ(positional_count(argc, argv, 6, "trials", 7), 7u)
      << "an absent positional takes the fallback";
  const auto message = [&](int index) {
    try {
      (void)positional_count(argc, argv, index, "nodes", 7);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(2), "nodes: not an integer: x");
  EXPECT_EQ(message(3), "nodes: negative value: -5");
  EXPECT_EQ(message(4), "nodes: must be at least 1: 0");
  EXPECT_EQ(message(5), "nodes: out of range: 99999999999999999999");
}

TEST(Cli, UnregisteredAccessThrows) {
  CliParser cli = sample_parser();
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_THROW((void)cli.get("nope"), std::logic_error);
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser cli;
  cli.add_flag("x", "", "", "");
  EXPECT_THROW(cli.add_flag("x", "", "", ""), std::logic_error);
}

TEST(Cli, HelpListsFlagsWithDefaults) {
  const CliParser cli = sample_parser();
  const std::string help = cli.help("prog", "summary line");
  EXPECT_NE(help.find("summary line"), std::string::npos);
  EXPECT_NE(help.find("--nodes <n>"), std::string::npos);
  EXPECT_NE(help.find("(default: 1000)"), std::string::npos);
  EXPECT_NE(help.find("--het"), std::string::npos);
}

}  // namespace
}  // namespace dhtlb::support
