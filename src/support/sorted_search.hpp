// The one search over sorted Chord ids.
//
// Every sorted-id lookup in the tree goes through this file.  Both
// levels of sim::FlatRing, whose blocks mutate in place, use
// interpolated_lower_bound: estimate the answer's rank from the top 64
// bits of the id, gallop outward from the estimate until the answer is
// bracketed, then binary-search the bracket.  Ids are SHA-1 outputs,
// i.e. uniform on the ring, so the estimate is off by O(sqrt n) and the
// final bracket stays small and cache-resident.  serve::RingView is
// immutable once frozen, so it builds a radix directory instead, and
// its cover() and route() hops search one directory bucket with
// prefix_lower_bound on an array of the ids' top 64 bits, falling back
// to binary_lower_bound on full ids only when a prefix ties the point.
//
// The full-id searches are templates on an id accessor `id_at(i)`
// returning a Uint160 over an index range [lo, hi), so callers keep
// their own layout (a flat array, a block of entries, a block-max
// summary, a prefix array plus its low-bit tails).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/uint160.hpp"

namespace dhtlb::support {

/// Below this many candidates a plain binary search beats any estimate.
inline constexpr std::size_t kInterpolateMin = 16;

/// First gallop step out of an estimate: about the estimate's expected
/// error on uniform ids (a few blocks in FlatRing's summary, a few
/// entries in a block of a few hundred ids).
inline constexpr std::size_t kGallopStep = 8;

/// First i in [lo, hi) with key_at(i) >= key, or hi.  The keys are
/// full ids, or the ids' top 64 bits (prefix_lower_bound).
template <typename Key, typename KeyAt>
std::size_t binary_lower_bound(std::size_t lo, std::size_t hi, const Key& key,
                               const KeyAt& key_at) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (key_at(mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First i in [lo, hi) with prefixes[i] >= prefix, or hi, over the top
/// 64 bits of sorted ids: one 8-byte compare per step.  It is the
/// lower bound of every id with a different prefix; ids equal to
/// `prefix` start at the answer, and only their low bits can order
/// them against a full point, so a caller that lands on
/// prefixes[i] == prefix finishes with binary_lower_bound on full ids.
inline std::size_t prefix_lower_bound(std::span<const std::uint64_t> prefixes,
                                      std::size_t lo, std::size_t hi,
                                      std::uint64_t prefix) {
  return binary_lower_bound(
      lo, hi, prefix, [prefixes](std::size_t k) { return prefixes[k]; });
}

/// First i in [lo, hi) with id_at(i) >= id, or hi, searched outward
/// from the estimate `est` (lo <= est < hi): gallop with doubling steps
/// until the answer is bracketed, then binary-search the bracket.
template <typename IdAt>
std::size_t guided_lower_bound(std::size_t lo, std::size_t hi,
                               std::size_t est, const Uint160& id,
                               const IdAt& id_at) {
  std::size_t step = kGallopStep;
  std::size_t a;
  std::size_t b;
  if (id_at(est) < id) {
    a = est + 1;
    b = est + 1;
    while (b < hi && id_at(b) < id) {
      a = b + 1;
      b += step;
      step *= 2;
    }
    if (b > hi) b = hi;
  } else {
    b = est;
    a = b - lo >= step ? b - step : lo;
    while (a > lo && !(id_at(a) < id)) {
      b = a;
      step *= 2;
      a = a - lo >= step ? a - step : lo;
    }
  }
  return binary_lower_bound(a, b, id, id_at);
}

/// Estimated rank in [0, n) of top-64-bit value `x` among n ids spread
/// evenly over (lo, hi] (lo < hi, n > 0): offset / span · n, clamped to
/// the ends.  Wide spans drop their 32 low bits so offset · n cannot
/// overflow for any n below 2^32.
constexpr std::size_t interpolate_rank(std::uint64_t x, std::uint64_t lo,
                                       std::uint64_t hi, std::size_t n) {
  if (x <= lo) return 0;
  const std::uint64_t span = hi - lo;
  const std::uint64_t offset = std::min(x - lo, span);
  const int shift = span >> 32 != 0 ? 32 : 0;
  const std::uint64_t est = (offset >> shift) * n / (span >> shift);
  return std::min<std::size_t>(est, n - 1);
}

/// First i in [lo, hi) with id_at(i) >= id, or hi, where the ids of
/// [lo, hi) have top 64 bits in [lo_high, hi_high].  Interpolates the
/// start between those bounds; short ranges, and ranges whose ids share
/// one top-64-bit value, fall back to a plain binary search.
template <typename IdAt>
std::size_t interpolated_lower_bound(std::size_t lo, std::size_t hi,
                                     std::uint64_t lo_high,
                                     std::uint64_t hi_high, const Uint160& id,
                                     const IdAt& id_at) {
  const std::size_t n = hi - lo;
  if (n < kInterpolateMin || hi_high <= lo_high) {
    return binary_lower_bound(lo, hi, id, id_at);
  }
  const std::size_t est =
      lo + interpolate_rank(id.high64(), lo_high, hi_high, n);
  return guided_lower_bound(lo, hi, est, id, id_at);
}

}  // namespace dhtlb::support
