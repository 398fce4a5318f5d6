// The shared sorted-id kernel, differential against std::lower_bound:
// every sub-range of small arrays on both sides of the interpolation
// threshold, probes below, inside and above each range, ids that share
// one top-64-bit value (the binary fallback and the prefix search's
// ties), and estimates pinned at both ends of a range.
#include "support/sorted_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::support {
namespace {

std::vector<Uint160> sorted_ids(Rng& rng, std::size_t n) {
  std::vector<Uint160> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(rng.uniform_u160());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

// Ids whose top 64 bits are all `high`: only the low 96 bits differ.
std::vector<Uint160> clustered_ids(Rng& rng, std::size_t n,
                                   std::uint64_t high) {
  std::vector<Uint160> ids;
  for (std::size_t i = 0; i < n; ++i) {
    const Uint160 low = rng.uniform_u160().shl(64).shr(64);
    ids.push_back(Uint160(high).shl(96) + low);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::size_t expected(const std::vector<Uint160>& ids, std::size_t lo,
                     std::size_t hi, const Uint160& probe) {
  const auto first = ids.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = ids.begin() + static_cast<std::ptrdiff_t>(hi);
  return static_cast<std::size_t>(std::lower_bound(first, last, probe) -
                                  ids.begin());
}

// Probes around [lo, hi): each id, one below and one above it, the ring
// ends, and a few uniform points.
std::vector<Uint160> probes_for(const std::vector<Uint160>& ids,
                                std::size_t lo, std::size_t hi, Rng& rng) {
  std::vector<Uint160> probes = {Uint160::zero(), Uint160::max()};
  for (std::size_t i = lo; i < hi; ++i) {
    probes.push_back(ids[i]);
    probes.push_back(ids[i] - Uint160::pow2(0));
    probes.push_back(ids[i] + Uint160::pow2(0));
  }
  for (int k = 0; k < 4; ++k) probes.push_back(rng.uniform_u160());
  return probes;
}

// Checks interpolated_lower_bound on every [lo, hi) of `ids`, with the
// range's own end ids as the interpolation bounds (as FlatRing passes a
// block's neighbouring summary ids) and with the whole ring's bounds;
// and prefix_lower_bound on the ids' top 64 bits, alone and finished on
// full ids on a tie, as RingView searches a bucket.
void check_every_subrange(const std::vector<Uint160>& ids, Rng& rng) {
  const auto id_at = [&ids](std::size_t i) -> const Uint160& {
    return ids[i];
  };
  std::vector<std::uint64_t> prefixes;
  for (const Uint160& id : ids) prefixes.push_back(id.high64());
  for (std::size_t lo = 0; lo <= ids.size(); ++lo) {
    for (std::size_t hi = lo; hi <= ids.size(); ++hi) {
      const std::uint64_t lo_high = lo < hi ? ids[lo].high64() : 0;
      const std::uint64_t hi_high = lo < hi ? ids[hi - 1].high64() : 0;
      for (const Uint160& probe : probes_for(ids, lo, hi, rng)) {
        const std::size_t want = expected(ids, lo, hi, probe);
        ASSERT_EQ(binary_lower_bound(lo, hi, probe, id_at), want);
        const std::uint64_t prefix = probe.high64();
        std::size_t i = prefix_lower_bound(prefixes, lo, hi, prefix);
        ASSERT_EQ(i, static_cast<std::size_t>(
                         std::lower_bound(prefixes.begin() +
                                              static_cast<std::ptrdiff_t>(lo),
                                          prefixes.begin() +
                                              static_cast<std::ptrdiff_t>(hi),
                                          prefix) -
                         prefixes.begin()));
        if (i < hi && prefixes[i] == prefix) {
          i = binary_lower_bound(i, hi, probe, id_at);
        }
        ASSERT_EQ(i, want) << "range [" << lo << ", " << hi << ") probe "
                           << probe;
        ASSERT_EQ(interpolated_lower_bound(lo, hi, lo_high, hi_high, probe,
                                           id_at),
                  want)
            << "range [" << lo << ", " << hi << ") probe " << probe;
        ASSERT_EQ(interpolated_lower_bound(lo, hi, 0, ~std::uint64_t{0},
                                           probe, id_at),
                  want)
            << "range [" << lo << ", " << hi << ") probe " << probe;
      }
    }
  }
}

TEST(SortedSearch, EverySubrangeOfSmallArraysMatchesStdLowerBound) {
  Rng rng(2024);
  for (const std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u, 40u}) {
    const std::vector<Uint160> ids = sorted_ids(rng, n);
    check_every_subrange(ids, rng);
  }
}

TEST(SortedSearch, LargeArraysMatchStdLowerBound) {
  Rng rng(77);
  for (const std::size_t n : {100u, 1000u, 20000u}) {
    const std::vector<Uint160> ids = sorted_ids(rng, n);
    const auto id_at = [&ids](std::size_t i) -> const Uint160& {
      return ids[i];
    };
    const std::size_t ranges[][2] = {
        {0, ids.size()}, {1, ids.size() / 2}, {ids.size() / 3, ids.size()}};
    for (const auto& range : ranges) {
      const std::size_t lo = range[0];
      const std::size_t hi = range[1];
      for (int k = 0; k < 2000; ++k) {
        const Uint160 probe = k % 2 == 0
                                  ? rng.uniform_u160()
                                  : ids[lo + rng.below(hi - lo)];
        ASSERT_EQ(interpolated_lower_bound(lo, hi, ids[lo].high64(),
                                           ids[hi - 1].high64(), probe,
                                           id_at),
                  expected(ids, lo, hi, probe));
      }
    }
  }
}

TEST(SortedSearch, SharedTopBitsFallBackToBinarySearch) {
  Rng rng(5);
  // Every id has the same high64(), so the interpolation span is 0.
  const std::vector<Uint160> ids =
      clustered_ids(rng, 40, 0x0123456789ABCDEFULL);
  ASSERT_EQ(ids.front().high64(), ids.back().high64());
  check_every_subrange(ids, rng);
  // Ids clustered at either end of the ring.
  check_every_subrange(clustered_ids(rng, 24, 0), rng);
  check_every_subrange(clustered_ids(rng, 24, ~std::uint64_t{0}), rng);
}

TEST(SortedSearch, GuidedSearchFromEstimatesAtBothEnds) {
  Rng rng(9);
  const std::vector<Uint160> ids = sorted_ids(rng, 300);
  const auto id_at = [&ids](std::size_t i) -> const Uint160& {
    return ids[i];
  };
  const std::size_t lo = 10;
  const std::size_t hi = 290;
  for (const Uint160& probe : probes_for(ids, lo, hi, rng)) {
    const std::size_t want = expected(ids, lo, hi, probe);
    for (const std::size_t est : {lo, lo + 1, (lo + hi) / 2, hi - 2, hi - 1}) {
      ASSERT_EQ(guided_lower_bound(lo, hi, est, probe, id_at), want)
          << "estimate " << est << " probe " << probe;
    }
  }
}

TEST(SortedSearch, InterpolateRankClampsToTheRange) {
  // At or below the lower bound: rank 0; at or above the upper: n - 1.
  EXPECT_EQ(interpolate_rank(0, 100, 200, 10), 0u);
  EXPECT_EQ(interpolate_rank(100, 100, 200, 10), 0u);
  EXPECT_EQ(interpolate_rank(200, 100, 200, 10), 9u);
  EXPECT_EQ(interpolate_rank(~std::uint64_t{0}, 100, 200, 10), 9u);
  EXPECT_EQ(interpolate_rank(150, 100, 200, 10), 5u);
  // Wide spans: the whole 64-bit range, where offset · n would overflow
  // without the shift.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(interpolate_rank(0, 0, top, 1000000), 0u);
  EXPECT_EQ(interpolate_rank(top, 0, top, 1000000), 999999u);
  EXPECT_EQ(interpolate_rank(top / 2, 0, top, 1000000), 499999u);
  EXPECT_EQ(interpolate_rank(top / 4, 0, top, 1000000), 249999u);
}

}  // namespace
}  // namespace dhtlb::support
