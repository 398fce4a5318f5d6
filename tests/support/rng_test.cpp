#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/ring_math.hpp"

namespace dhtlb::support {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng(7);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRateIsRespected) {
  Rng rng(11);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.01)) ++hits;
  }
  // 1% of 100k = 1000, stddev ≈ 31; allow ±5 sigma.
  EXPECT_NEAR(hits, 1000, 160);
}

TEST(Rng, BelowStaysBelow) {
  Rng rng(13);
  for (const std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 62}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(n), n);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(15);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(17);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kN = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kN; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kN / kBuckets, 500);  // ±5 sigma-ish
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeSingleton) {
  Rng rng(21);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.range(5, 5), 5u);
}

// Draws recorded before below() gained its zero check: the check must
// move no draw for any n >= 1, down to the edges of the 64-bit range.
TEST(Rng, BelowDrawsArePinned) {
  struct Case {
    std::uint64_t n;
    std::uint64_t draws[6];
  };
  const Case cases[] = {
      {1, {0, 0, 0, 0, 0, 0}},
      {3, {0, 2, 0, 0, 2, 0}},
      {1ULL << 63,
       {514598573274020759ULL, 7213634068577847346ULL, 664589519293982720ULL,
        1473118889992868405ULL, 7135665370835387731ULL,
        2258546705306200698ULL}},
      {~0ULL,
       {1029197146548041517ULL, 14427268137155694692ULL,
        1329179038587965440ULL, 2946237779985736810ULL,
        14271330741670775462ULL, 4517093410612401396ULL}},
  };
  for (const Case& c : cases) {
    Rng rng(2024);
    for (const std::uint64_t want : c.draws) {
      EXPECT_EQ(rng.below(c.n), want) << "n = " << c.n;
    }
  }
}

// The full range [0, 2^64 - 1] has 2^64 values, one per raw draw.
TEST(Rng, FullSpanRangeIsARawDraw) {
  Rng rng(2024);
  for (const std::uint64_t want :
       {1029197146548041518ULL, 14427268137155694693ULL,
        1329179038587965441ULL, 2946237779985736811ULL,
        14271330741670775463ULL, 4517093410612401397ULL}) {
    EXPECT_EQ(rng.range(0, ~0ULL), want);
  }
}

TEST(RngDeathTest, BelowZeroFailsItsCheck) {
  Rng rng(1);
  EXPECT_DEATH(rng.below(0), "context: Rng::below\\(0\\): the range");
}

TEST(Rng, UniformU160Distinct) {
  Rng rng(23);
  std::set<Uint160> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u160());
  EXPECT_EQ(seen.size(), 1000u) << "160-bit collisions are impossible";
}

TEST(Rng, UniformU160HitsBothHalves) {
  Rng rng(25);
  int high = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.uniform_u160() >= Uint160::pow2(159)) ++high;
  }
  EXPECT_NEAR(high, 500, 100);
}

TEST(Rng, UniformInArcStaysInside) {
  Rng rng(27);
  for (int i = 0; i < 300; ++i) {
    const Uint160 a = rng.uniform_u160();
    const Uint160 b = rng.uniform_u160();
    if (clockwise_distance(a, b) < Uint160{2}) continue;
    const Uint160 x = rng.uniform_in_arc(a, b);
    EXPECT_TRUE(in_open_arc(x, a, b));
  }
}

TEST(Rng, UniformInNarrowArc) {
  Rng rng(29);
  const Uint160 a{1000};
  const Uint160 b{1002};  // single interior ID: 1001
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniform_in_arc(a, b), Uint160{1001});
  }
}

TEST(Rng, UniformInWrappingArc) {
  Rng rng(31);
  const Uint160 a = Uint160::max() - Uint160{10};
  const Uint160 b{10};
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(in_open_arc(rng.uniform_in_arc(a, b), a, b));
  }
}

TEST(Rng, UniformInWideArcIsFast) {
  // Regression guard: arcs wider than 2^64 used to rejection-sample from
  // the entire 2^160 space (acceptance ~ arc/2^160 — billions of draws
  // per call for realistic DHT gaps).  With power-of-two windowing this
  // loop finishes instantly; under the old code it would effectively
  // hang the test suite.
  Rng rng(101);
  for (int mag = 70; mag <= 158; mag += 8) {
    const Uint160 a{12345};
    const Uint160 b = a + Uint160::pow2(mag) + Uint160{7};
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(in_open_arc(rng.uniform_in_arc(a, b), a, b))
          << "arc magnitude 2^" << mag;
    }
  }
}

TEST(Rng, UniformInWideArcCoversTheWholeArc) {
  // The windowed sampler must still reach both halves of the arc.
  Rng rng(103);
  const Uint160 a = Uint160::zero();
  const Uint160 b = Uint160::pow2(150);
  const Uint160 mid = Uint160::pow2(149);
  int low = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    if (rng.uniform_in_arc(a, b) < mid) ++low;
  }
  EXPECT_NEAR(low, kN / 2, 150);
}

TEST(Rng, UniformInFullRingAvoidsEndpoint) {
  Rng rng(33);
  const Uint160 a{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(rng.uniform_in_arc(a, a), a);
  }
}

TEST(MixSeed, TrialSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    seeds.insert(mix_seed(0x5EEDBA5E, trial));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(MixSeed, OrderMatters) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
}

TEST(StreamSeed, FoldsEachSaltThroughMixSeed) {
  EXPECT_EQ(stream_seed(9), 9u);
  EXPECT_EQ(stream_seed(9, 4), mix_seed(9, 4));
  EXPECT_EQ(stream_seed(9, 4, 2, 7), mix_seed(mix_seed(mix_seed(9, 4), 2), 7));
}

TEST(StreamSeed, SiblingStreamsAreDecorrelated) {
  // Two shards of one (tick, phase) draw independent sequences.
  Rng a(stream_seed(35, 12, 1, 0));
  Rng b(stream_seed(35, 12, 1, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Splitmix64, KnownSequenceIsStable) {
  // Regression pin: splitmix64(0) sequence per the reference
  // implementation (Steele/Lea/Vigna).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454FULL);
}

}  // namespace
}  // namespace dhtlb::support
