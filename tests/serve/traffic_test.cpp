// KeyStream: traffic-model parsing, distribution shape, and the
// determinism guarantees the serve goldens rest on.
#include "serve/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "hashing/sha1.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::serve {
namespace {

TEST(TrafficTest, ParseAndNameRoundTrip) {
  for (const Traffic t :
       {Traffic::kUniform, Traffic::kZipf, Traffic::kHotspot}) {
    const auto parsed = parse_traffic(traffic_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(parse_traffic("pareto").has_value());
  EXPECT_FALSE(parse_traffic("").has_value());
}

TEST(TrafficTest, DrawsAreDeterministicInSeedAndStream) {
  TrafficConfig config;
  config.key_universe = 1000;
  for (const Traffic t :
       {Traffic::kUniform, Traffic::kZipf, Traffic::kHotspot}) {
    const KeyStream a(t, config, 99);
    const KeyStream b(t, config, 99);
    support::Rng rng_a(7);
    support::Rng rng_b(7);
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(a.draw(rng_a), b.draw(rng_b));
    }
  }
}

TEST(TrafficTest, ZipfHeadDominates) {
  TrafficConfig config;
  config.key_universe = 1000;
  const KeyStream stream(Traffic::kZipf, config, 5);

  // Identify the rank-0 key: it is the single most frequent draw, with
  // probability 1/H(1000) ~ 13% — far above rank 999's 0.013%.
  support::Rng rng(11);
  std::map<Uint160, int> counts;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[stream.draw(rng)];
  int best = 0;
  for (const auto& [key, count] : counts) best = std::max(best, count);
  // Expected ~2670; allow wide slack, but it must dominate uniform's
  // draws/1000 = 20.
  EXPECT_GT(best, draws / 20);
  // The universe bound holds: never more than 1000 distinct keys.
  EXPECT_LE(counts.size(), 1000u);
}

TEST(TrafficTest, ZipfDrawMatchesReferenceInverseCdf) {
  // The reference: the same harmonic CDF, built with the same IEEE
  // operations, inverted by a binary search over the full rank range.
  // KeyStream narrows the search with its guide table; replaying one
  // Rng stream through both must pick the same rank key every draw.
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{65535}, std::uint64_t{65536}, std::uint64_t{65537},
        std::uint64_t{100000}, std::uint64_t{1} << 22}) {
    std::vector<double> cdf(n);
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf[r] = total;
    }
    for (double& c : cdf) c /= total;
    cdf.back() = 1.0;

    TrafficConfig config;
    config.key_universe = n;
    const KeyStream stream(Traffic::kZipf, config, 1);
    support::Rng rng(support::mix_seed(n, 0x21BF));
    support::Rng ref_rng(support::mix_seed(n, 0x21BF));
    for (int i = 0; i < 20000; ++i) {
      const double u = ref_rng.uniform();
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      ASSERT_NE(it, cdf.end());
      const auto rank = static_cast<std::uint64_t>(it - cdf.begin());
      ASSERT_EQ(stream.draw(rng), hashing::Sha1::hash_u64(rank))
          << "universe " << n << " draw " << i << " u " << u;
    }
  }
}

TEST(TrafficTest, HotspotConcentratesInArc) {
  const KeyStream stream(Traffic::kHotspot, TrafficConfig{}, 77);

  support::Rng rng(13);
  const int draws = 10000;
  int inside = 0;
  for (int i = 0; i < draws; ++i) {
    const Uint160 key = stream.draw(rng);
    if (support::in_open_arc(key, stream.hot_start(), stream.hot_end())) {
      ++inside;
    }
  }
  // ~90% + the ~1.6% of background mass that lands in the arc anyway.
  EXPECT_GT(inside, draws * 85 / 100);
  EXPECT_LT(inside, draws * 95 / 100);
}

TEST(TrafficTest, HotspotArcPositionDerivesFromRunSeed) {
  TrafficConfig config;
  const KeyStream a(Traffic::kHotspot, config, 1);
  const KeyStream b(Traffic::kHotspot, config, 1);
  const KeyStream c(Traffic::kHotspot, config, 2);
  EXPECT_EQ(a.hot_start(), b.hot_start());
  EXPECT_EQ(a.hot_end(), b.hot_end());
  EXPECT_NE(a.hot_start(), c.hot_start());
}

TEST(TrafficTest, UniformCoversTheRing) {
  const KeyStream stream(Traffic::kUniform, TrafficConfig{}, 3);
  support::Rng rng(17);
  // Bucket the top 3 bits: all 8 octants of the ring get draws.
  std::vector<int> octants(8, 0);
  for (int i = 0; i < 4000; ++i) {
    const Uint160 key = stream.draw(rng);
    ++octants[key.limbs()[0] >> 29];
  }
  for (const int n : octants) EXPECT_GT(n, 0);
}

}  // namespace
}  // namespace dhtlb::serve
