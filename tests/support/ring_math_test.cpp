#include "support/ring_math.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace dhtlb::support {
namespace {

const Uint160 kA{100};
const Uint160 kB{200};
const Uint160 kNearTop = Uint160::max() - Uint160{50};

TEST(RingMath, OpenArcSimple) {
  EXPECT_TRUE(in_open_arc(Uint160{150}, kA, kB));
  EXPECT_FALSE(in_open_arc(kA, kA, kB)) << "endpoints excluded";
  EXPECT_FALSE(in_open_arc(kB, kA, kB)) << "endpoints excluded";
  EXPECT_FALSE(in_open_arc(Uint160{50}, kA, kB));
  EXPECT_FALSE(in_open_arc(Uint160{250}, kA, kB));
}

TEST(RingMath, OpenArcWrapsThroughZero) {
  // Arc from near-max to 100 passes through 0.
  EXPECT_TRUE(in_open_arc(Uint160::zero(), kNearTop, kA));
  EXPECT_TRUE(in_open_arc(Uint160{50}, kNearTop, kA));
  EXPECT_TRUE(in_open_arc(Uint160::max(), kNearTop, kA));
  EXPECT_FALSE(in_open_arc(Uint160{150}, kNearTop, kA));
  EXPECT_FALSE(in_open_arc(kNearTop, kNearTop, kA));
}

TEST(RingMath, OpenArcDegenerateIsFullRingMinusPoint) {
  EXPECT_TRUE(in_open_arc(Uint160{5}, kA, kA));
  EXPECT_TRUE(in_open_arc(Uint160::max(), kA, kA));
  EXPECT_FALSE(in_open_arc(kA, kA, kA));
}

TEST(RingMath, HalfOpenArcIncludesUpperEndpoint) {
  EXPECT_TRUE(in_half_open_arc(kB, kA, kB));
  EXPECT_FALSE(in_half_open_arc(kA, kA, kB));
  EXPECT_TRUE(in_half_open_arc(Uint160{150}, kA, kB));
}

TEST(RingMath, HalfOpenArcWrap) {
  EXPECT_TRUE(in_half_open_arc(kA, kNearTop, kA));
  EXPECT_TRUE(in_half_open_arc(Uint160::zero(), kNearTop, kA));
  EXPECT_FALSE(in_half_open_arc(kNearTop, kNearTop, kA));
  EXPECT_FALSE(in_half_open_arc(Uint160{101}, kNearTop, kA));
}

TEST(RingMath, HalfOpenDegenerateCoversEverything) {
  // A single node owns the whole ring, including its own ID.
  EXPECT_TRUE(in_half_open_arc(kA, kA, kA));
  EXPECT_TRUE(in_half_open_arc(Uint160::zero(), kA, kA));
  EXPECT_TRUE(in_half_open_arc(Uint160::max(), kA, kA));
}

TEST(RingMath, EveryPointIsInExactlyOneSideOfAPartition) {
  // For any cut points a != b, x != a,b lies in exactly one of (a,b), (b,a).
  Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    const Uint160 a = rng.uniform_u160();
    const Uint160 b = rng.uniform_u160();
    const Uint160 x = rng.uniform_u160();
    if (a == b || x == a || x == b) continue;
    EXPECT_NE(in_open_arc(x, a, b), in_open_arc(x, b, a));
  }
}

TEST(RingMath, ClockwiseDistanceBasics) {
  EXPECT_EQ(clockwise_distance(kA, kB), Uint160{100});
  EXPECT_EQ(clockwise_distance(kA, kA), Uint160::zero());
  // Going the "long way" around: from 200 back to 100.
  EXPECT_EQ(clockwise_distance(kB, kA),
            Uint160::zero() - Uint160{100});
}

TEST(RingMath, DistancesAroundTheRingSumToZero) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    const Uint160 a = rng.uniform_u160();
    const Uint160 b = rng.uniform_u160();
    EXPECT_EQ(clockwise_distance(a, b) + clockwise_distance(b, a),
              Uint160::zero())
        << "d(a,b) + d(b,a) == ring size == 0 (mod 2^160)";
  }
}

TEST(RingMath, ArcSizeMatchesDistanceExceptDegenerate) {
  EXPECT_EQ(arc_size(kA, kB), Uint160{100});
  EXPECT_EQ(arc_size(kA, kA), Uint160::max()) << "full ring saturates";
}

TEST(RingMath, MidpointOfSimpleArc) {
  EXPECT_EQ(arc_midpoint(kA, kB), Uint160{150});
  EXPECT_EQ(arc_midpoint(Uint160{0}, Uint160{10}), Uint160{5});
}

TEST(RingMath, MidpointOfWrappingArc) {
  // Arc from max-1 to 3 has interior {max, 0, 1, 2}; span 5, mid offset 2.
  const Uint160 lo = Uint160::max() - Uint160{1};
  const Uint160 mid = arc_midpoint(lo, Uint160{3});
  EXPECT_EQ(mid, Uint160::zero());
  EXPECT_TRUE(in_open_arc(mid, lo, Uint160{3}));
}

TEST(RingMath, MidpointIsInsideOpenArc) {
  Rng rng(47);
  int checked = 0;
  for (int i = 0; i < 300; ++i) {
    const Uint160 a = rng.uniform_u160();
    const Uint160 b = rng.uniform_u160();
    if (clockwise_distance(a, b) < Uint160{2}) continue;
    EXPECT_TRUE(in_open_arc(arc_midpoint(a, b), a, b))
        << "midpoint of (" << a << ", " << b << ")";
    ++checked;
  }
  EXPECT_GT(checked, 250);
}

TEST(RingMath, MidpointOfFullRingIsAntipode) {
  EXPECT_EQ(arc_midpoint(Uint160::zero(), Uint160::zero()),
            Uint160::pow2(159));
}

TEST(RingMath, RingFractionMatchesUnitInterval) {
  EXPECT_DOUBLE_EQ(ring_fraction(Uint160::pow2(159)), 0.5);
  EXPECT_DOUBLE_EQ(ring_fraction(Uint160::zero()), 0.0);
}

}  // namespace
}  // namespace dhtlb::support
