// Sybil ID placement: finding a usable identifier inside a target arc.
//
// The paper assumes nodes cannot pick IDs freely — IDs come from SHA-1 —
// so placing a Sybil "in a range" means searching hash outputs until one
// lands inside the target arc (their ref [21] shows this search is
// cheap).  This module implements that search and reports its cost.  The
// tick simulator uses the idealized variants instead: a uniform draw
// (support::Rng::uniform_in_arc) or the arc midpoint
// (support::arc_midpoint).
#pragma once

#include <cstdint>
#include <optional>

#include "hashing/sha1.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::chord {

/// Outcome of a hash-search placement.
struct PlacementResult {
  support::Uint160 id;       // the ID found inside the arc
  std::uint64_t attempts = 0;  // SHA-1 evaluations performed
};

/// Searches SHA-1 outputs (of sequential nonces drawn from rng) for an ID
/// strictly inside the open arc (lo, hi).  The expected attempt count is
/// 2^160 / arc_size — for a network of n nodes the biggest gaps are
/// ~ (ln n)/n of the ring, so a few n tries suffice.  `max_attempts`
/// bounds the search; returns nullopt when exhausted.
std::optional<PlacementResult> place_by_hash_search(
    const support::Uint160& lo, const support::Uint160& hi,
    support::Rng& rng, std::uint64_t max_attempts = 1 << 20);

}  // namespace dhtlb::chord
