#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace dhtlb::support {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("DHTLB_TEST_VAR");
    ::unsetenv("DHTLB_TRIALS");
    ::unsetenv("DHTLB_SEED");
    ::unsetenv("DHTLB_THREADS");
  }
};

TEST_F(EnvTest, UnsetUsesFallback) {
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 17u);
}

TEST_F(EnvTest, SetValueIsParsed) {
  ::setenv("DHTLB_TEST_VAR", "12345", 1);
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 12345u);
}

// A set knob is a plain decimal or an error naming the variable: a typo
// must not silently run with the default, and strtoull must not wrap a
// negative or saturate an overflow.
TEST_F(EnvTest, GarbageIsRejected) {
  for (const char* raw : {"not-a-number", "12abc", "banana", "-1",
                          "18446744073709551616"}) {
    ::setenv("DHTLB_TEST_VAR", raw, 1);
    try {
      env_u64("DHTLB_TEST_VAR", 17);
      ADD_FAILURE() << raw << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DHTLB_TEST_VAR"), std::string::npos) << what;
      EXPECT_NE(what.find(raw), std::string::npos) << what;
    }
  }
  ::setenv("DHTLB_TEST_VAR", "", 1);
  EXPECT_EQ(env_u64("DHTLB_TEST_VAR", 17), 17u) << "empty means unset";
}

TEST_F(EnvTest, SignedAndPaddedValuesAreRejected) {
  for (const char* raw : {"+5", " 5", "5 "}) {
    ::setenv("DHTLB_TEST_VAR", raw, 1);
    try {
      env_u64("DHTLB_TEST_VAR", 17);
      ADD_FAILURE() << "'" << raw << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("DHTLB_TEST_VAR: not an integer: ") + raw);
    }
  }
}

TEST_F(EnvTest, TrialsOverride) {
  EXPECT_EQ(env_trials(100), 100u);
  ::setenv("DHTLB_TRIALS", "5", 1);
  EXPECT_EQ(env_trials(100), 5u);
  ::setenv("DHTLB_TRIALS", "0", 1);
  EXPECT_EQ(env_trials(100), 100u) << "0 means use the default";
}

TEST_F(EnvTest, SeedDefaultAndOverride) {
  EXPECT_EQ(env_seed(), 0x5EEDBA5EULL);
  ::setenv("DHTLB_SEED", "42", 1);
  EXPECT_EQ(env_seed(), 42u);
}

TEST_F(EnvTest, ThreadsDefaultIsZero) {
  EXPECT_EQ(env_threads(), 0u);
  ::setenv("DHTLB_THREADS", "3", 1);
  EXPECT_EQ(env_threads(), 3u);
}

TEST_F(EnvTest, ThreadsAboveCapAreRejected) {
  ::setenv("DHTLB_THREADS", std::to_string(kMaxEnvThreads).c_str(), 1);
  EXPECT_EQ(env_threads(), kMaxEnvThreads);
  ::setenv("DHTLB_THREADS", "100000", 1);
  EXPECT_THROW(env_threads(), std::invalid_argument);
  ::setenv("DHTLB_SEED", "banana", 1);
  EXPECT_THROW(env_seed(), std::invalid_argument);
}

TEST_F(EnvTest, TrialsAboveCapAreRejected) {
  ::setenv("DHTLB_TRIALS", std::to_string(kMaxEnvTrials).c_str(), 1);
  EXPECT_EQ(env_trials(3), kMaxEnvTrials);
  ::setenv("DHTLB_TRIALS", std::to_string(kMaxEnvTrials + 1).c_str(), 1);
  try {
    env_trials(3);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "DHTLB_TRIALS: above the cap of 10000: 10001");
  }
}

}  // namespace
}  // namespace dhtlb::support
