#include "chord/sybil_placement.hpp"

#include "support/ring_math.hpp"

namespace dhtlb::chord {

std::optional<PlacementResult> place_by_hash_search(
    const support::Uint160& lo, const support::Uint160& hi,
    support::Rng& rng, std::uint64_t max_attempts) {
  PlacementResult result;
  for (std::uint64_t attempt = 1; attempt <= max_attempts; ++attempt) {
    const support::Uint160 candidate = hashing::Sha1::hash_u64(rng());
    if (support::in_open_arc(candidate, lo, hi)) {
      result.id = candidate;
      result.attempts = attempt;
      return result;
    }
  }
  return std::nullopt;
}

}  // namespace dhtlb::chord
