// Deterministic pseudo-random number generation for simulations.
//
// Reproducibility is load-bearing for this project: every experiment in
// EXPERIMENTS.md must regenerate identically given the same base seed, and
// trials must be independent when run concurrently.  We therefore avoid
// std::random_device / global engines entirely.  Each trial owns an Rng
// seeded by mix(base_seed, trial_index); all stochastic choices flow
// through it.
//
// The engine is xoshiro256** (Blackman & Vigna) seeded via splitmix64 —
// the standard recommendation for seeding-sensitive simulations, far
// better distributed than a raw LCG and much faster than mt19937_64.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "support/uint160.hpp"

namespace dhtlb::support {

/// splitmix64 step: used both as a stand-alone mixer and as the seeding
/// routine for the main engine.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; used to derive per-trial seeds so
/// that (base_seed, trial) pairs give decorrelated streams.
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
  return splitmix64(s) ^ splitmix64(s);
}

/// Folds a label path into a seed: stream_seed(seed, a, b, c) is
/// mix_seed(mix_seed(mix_seed(seed, a), b), c).  This is how the parallel
/// tick engine derives its per-(tick, phase, shard) RNG streams: every
/// level of the path decorrelates independently, so sibling streams never
/// overlap and the derivation depends only on logical labels — never on
/// thread count or execution order.
template <typename... Salts>
constexpr std::uint64_t stream_seed(std::uint64_t seed, Salts... salts) {
  ((seed = mix_seed(seed, static_cast<std::uint64_t>(salts))), ...);
  return seed;
}

/// xoshiro256** engine.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0, 1]).
  constexpr bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, n) via Lemire's unbiased multiply-shift
  /// rejection method.  n must be nonzero (a DHTLB_CHECK).
  constexpr std::uint64_t below(std::uint64_t n) {
    // 128-bit multiply; __uint128_t is available on all GCC/Clang targets
    // this project supports (__extension__ silences the pedantic warning).
    __extension__ using U128 = unsigned __int128;
    auto mul = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<U128>(a) * b;
    };
    std::uint64_t x = (*this)();
    U128 m = mul(x, n);
    auto low = static_cast<std::uint64_t>(m);
    // `low <= n - 1` is `low < n` for n >= 1, and always true for n == 0,
    // so the zero check costs nothing outside the rare rejection branch.
    if (low <= n - 1) {
      check_below_bound(n);
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = (*this)();
        m = mul(x, n);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    const std::uint64_t span = hi - lo + 1;
    // The full 64-bit range has 2^64 values: its span wraps to 0.
    return span == 0 ? (*this)() : lo + below(span);
  }

  /// Uniform 160-bit value: a uniformly random point on the Chord ring.
  Uint160 uniform_u160() {
    std::array<std::uint8_t, 20> bytes{};
    std::uint64_t words[3] = {(*this)(), (*this)(), (*this)()};
    for (std::size_t i = 0; i < 20; ++i) {
      bytes[i] = static_cast<std::uint8_t>(words[i / 8] >> ((i % 8) * 8));
    }
    return Uint160::from_bytes(bytes);
  }

  /// Uniform ID strictly inside the open ring arc (a, b); requires the
  /// arc to contain at least one ID (distance(a, b) >= 2 or a == b).
  Uint160 uniform_in_arc(const Uint160& a, const Uint160& b);

 private:
  /// Fails a DHTLB_CHECK when n == 0.  Out of line: the check's report
  /// builder cannot live in a constexpr function.
  static void check_below_bound(std::uint64_t n);

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dhtlb::support
