#include "chord/sybil_placement.hpp"

#include <gtest/gtest.h>

#include "support/ring_math.hpp"

namespace dhtlb::chord {
namespace {

using support::Rng;
using support::Uint160;

TEST(SybilPlacement, HashSearchLandsInsideArc) {
  Rng rng(1);
  // A quarter-ring arc: expected ~4 attempts.
  const Uint160 lo = Uint160::zero();
  const Uint160 hi = Uint160::pow2(158);
  const auto result = place_by_hash_search(lo, hi, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(support::in_open_arc(result->id, lo, hi));
  EXPECT_GE(result->attempts, 1u);
}

TEST(SybilPlacement, HashSearchAttemptsScaleInverselyWithArcSize) {
  // Paper ref [21]: placement cost ~ ring/arc.  Check a half-ring arc
  // needs few tries and a 1/256 arc needs more (on average).
  Rng rng(2);
  std::uint64_t half_attempts = 0, small_attempts = 0;
  constexpr int kTrials = 50;
  for (int i = 0; i < kTrials; ++i) {
    half_attempts +=
        place_by_hash_search(Uint160::zero(), Uint160::pow2(159), rng)
            ->attempts;
    small_attempts +=
        place_by_hash_search(Uint160::zero(), Uint160::pow2(152), rng)
            ->attempts;
  }
  EXPECT_LT(half_attempts / kTrials, 5u);
  EXPECT_GT(small_attempts, half_attempts);
}

TEST(SybilPlacement, HashSearchGivesUpOnHopelessArc) {
  Rng rng(3);
  // A 2-ID arc: success chance 2^-159 per try; must hit max_attempts.
  const Uint160 lo{1000};
  const Uint160 hi{1002};
  const auto result = place_by_hash_search(lo, hi, rng, /*max_attempts=*/100);
  EXPECT_FALSE(result.has_value());
}

TEST(SybilPlacement, WrappingArcWorks) {
  Rng rng(4);
  const Uint160 lo = Uint160::max() - Uint160::pow2(158);
  const Uint160 hi = Uint160::pow2(158);
  const auto result = place_by_hash_search(lo, hi, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(support::in_open_arc(result->id, lo, hi));
}

}  // namespace
}  // namespace dhtlb::chord
