// Interval and distance logic on the Chord identifier circle.
//
// Chord's correctness conditions are phrased in terms of membership in
// (half-)open arcs of the ring, e.g. "key k belongs to node n iff
// k ∈ (predecessor(n), n]".  These predicates must handle wrap-around
// (arcs that cross zero) and the degenerate single-node arc where both
// endpoints coincide (which denotes the *full* ring, not the empty set).
#pragma once

#include "support/uint160.hpp"

namespace dhtlb::support {

/// Bit index of the half-ring offset (2^159): adding it to an ID yields
/// the point diametrically opposite on the 2^160 ring.
inline constexpr int kAntipodeBit = Uint160::kBits - 1;

/// True iff x lies in the open arc (a, b) walking clockwise from a to b.
/// When a == b the arc is the whole ring minus the endpoint (Chord's
/// convention for a ring with a single node).
constexpr bool in_open_arc(const Uint160& x, const Uint160& a,
                           const Uint160& b) {
  if (a == b) return x != a;        // full ring minus the single endpoint
  if (a < b) return a < x && x < b;
  return x > a || x < b;            // arc wraps through zero
}

/// True iff x lies in the half-open arc (a, b], clockwise.  This is the
/// ownership arc of a Chord node with ID b and predecessor a.
constexpr bool in_half_open_arc(const Uint160& x, const Uint160& a,
                                const Uint160& b) {
  if (a == b) return true;          // single node owns the entire ring
  if (a < b) return a < x && x <= b;
  return x > a || x <= b;
}

/// Clockwise distance from a to b: the number of ring steps walking in
/// increasing-ID direction.  Always in [0, 2^160); distance(a, a) == 0.
constexpr Uint160 clockwise_distance(const Uint160& a, const Uint160& b) {
  return b - a;  // wrapping subtraction mod 2^160 is exactly ring distance
}

/// Size of the ownership arc (a, b]; a == b denotes the full ring, whose
/// size 2^160 is not representable, so we return 2^160 - 1 as a saturated
/// stand-in (callers compare arc sizes, never sum them).
constexpr Uint160 arc_size(const Uint160& a, const Uint160& b) {
  if (a == b) return Uint160::max();
  return clockwise_distance(a, b);
}

/// The ID halfway along the clockwise arc from a to b.  For a == b (full
/// ring) this is the antipode of a.  The midpoint is strictly inside the
/// open arc whenever the arc has length >= 2.
constexpr Uint160 arc_midpoint(const Uint160& a, const Uint160& b) {
  if (a == b) return a + Uint160::pow2(kAntipodeBit);  // full ring
  return a + clockwise_distance(a, b).shr(1);
}

/// Maps an ID to an angle fraction in [0, 1) for unit-circle plots, per
/// the paper's Figures 2-3: x = sin(2*pi*f), y = cos(2*pi*f).
inline double ring_fraction(const Uint160& id) {
  return id.to_unit_interval();
}

/// Maps an ID to one of `shards` equal contiguous arcs of the ring:
/// shard s covers [s/shards, (s+1)/shards) of the identifier circle.
/// The top 64 bits decide the arc (a 2^-64 granularity boundary error is
/// impossible for shard counts far below 2^64), via the same
/// multiply-shift trick Rng::below uses.  SHA-1 IDs are uniform, so the
/// arcs are balanced in expectation — this is the partition the parallel
/// tick engine shards the ring by.
constexpr std::size_t arc_shard(const Uint160& id, std::size_t shards) {
  __extension__ using U128 = unsigned __int128;
  return static_cast<std::size_t>(
      static_cast<U128>(id.high64()) * shards >> 64);
}

}  // namespace dhtlb::support
