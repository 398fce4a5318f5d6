#include "support/rng.hpp"

#include "support/check.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::support {

void Rng::check_below_bound(std::uint64_t n) {
  DHTLB_CHECK(n != 0, "Rng::below(0): the range [0, 0) is empty");
}

Uint160 Rng::uniform_in_arc(const Uint160& a, const Uint160& b) {
  // Rejection sampling over the whole ring would be hopeless for narrow
  // arcs, so sample an offset in [1, distance) directly.  The arc length
  // of a realistic DHT gap always fits far below 2^160, but we handle the
  // general case by sampling each limb and rejecting the (rare) overshoot.
  if (a == b) {
    // Full ring: any ID except a itself.
    Uint160 candidate = uniform_u160();
    while (candidate == a) candidate = uniform_u160();
    return candidate;
  }
  const Uint160 span = clockwise_distance(a, b);
  DHTLB_CHECK(span > Uint160{1},
              "uniform_in_arc: open arc (" << a << ", " << b
                                           << ") contains no ID");
  // Sample offset uniformly in [1, span - 1] == 1 + uniform in [0, span-1).
  const Uint160 bound = span - Uint160{1};  // number of interior IDs
  // Small bounds go through Lemire's method directly.
  if (bound.high64() == 0 && bound.limbs()[2] == 0) {
    const std::uint64_t off = below(bound.low64());
    return a + Uint160{off + 1};
  }
  // Wide bounds: rejection-sample from the smallest power-of-two window
  // covering the bound (acceptance >= 1/2, so ~2 expected draws).
  // Rejecting from the full 2^160 space instead would need 2^160/bound
  // draws — catastrophic for the narrow arcs Sybil placement works with.
  const int window_shift = Uint160::kBits - bound.bit_length();
  Uint160 draw = uniform_u160().shr(window_shift);
  while (!(draw < bound)) draw = uniform_u160().shr(window_shift);
  return a + draw + Uint160{1};
}

}  // namespace dhtlb::support
