// Key-traffic models for the serving plane: which keys do users look up?
//
// Three streams, selectable per run (dhtlb_scenario --traffic):
//   uniform — every draw a uniformly random ring point; the null model.
//   zipf    — draws from a fixed universe of N keys with harmonic
//             (Zipf s=1) popularity: key rank r is drawn with
//             probability proportional to 1/(r+1).  This is the skewed
//             read distribution of real DHT workloads ("Data Load
//             Balancing in Heterogeneous Dynamic Networks", PAPERS.md);
//             the universe keys are SHA-1 hashes of their rank, so the
//             popular keys scatter uniformly around the ring.
//   hotspot — 90% of the probability mass lands uniformly inside one
//             ring arc 1/64 of the key space wide (position derived from
//             the run seed), the rest is uniform.  Models a flash crowd parked on one
//             key range — the adversarial case for ring balance.
//
// Determinism: a KeyStream is immutable after construction (shared by
// all serve shards); every draw's randomness comes from the caller's
// per-(tick, shard) Rng stream, and the zipf CDF is built with plain
// IEEE +,/ arithmetic — no libm calls whose rounding could differ
// across toolchains — so the same (config, seed) produces the same key
// sequence on every machine, at any thread or reader count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::serve {

using support::Uint160;

enum class Traffic { kUniform, kZipf, kHotspot };

/// Parses a --traffic flag value; nullopt on an unknown name.
std::optional<Traffic> parse_traffic(std::string_view name);

/// The canonical CLI / telemetry name of a traffic model.
std::string_view traffic_name(Traffic traffic);

/// Largest zipf key universe: bounds the precomputed CDF and key table.
inline constexpr std::uint64_t kMaxKeyUniverse = 1ULL << 22;

struct TrafficConfig {
  /// Zipf universe size (distinct keys), in [1, kMaxKeyUniverse]; the
  /// KeyStream constructor DHTLB_CHECKs it.
  std::uint64_t key_universe = 100000;
};

/// An immutable, shareable key source.  Construction precomputes the
/// zipf tables / hotspot arc; draw() is const and thread-safe (all
/// mutable state lives in the caller's Rng).
class KeyStream {
 public:
  /// `run_seed` anchors the per-run derived constants (the hotspot
  /// arc's position) — not the per-draw randomness, which is the
  /// caller's.
  KeyStream(Traffic traffic, const TrafficConfig& config,
            std::uint64_t run_seed);

  Traffic traffic() const { return traffic_; }

  /// Draws one lookup key using the caller's RNG stream.
  Uint160 draw(support::Rng& rng) const;

  /// Hot-arc bounds (hotspot model only; meaningless otherwise).
  const Uint160& hot_start() const { return hot_start_; }
  const Uint160& hot_end() const { return hot_end_; }

 private:
  Traffic traffic_;
  // Zipf draws start from a guide table over [0, 1] in 2^16 equal steps.
  static constexpr std::size_t kZipfGuideSize = std::size_t{1} << 16;

  // Zipf: cdf_[r] = P(rank <= r); keys_[r] = SHA-1(rank r);
  // guide_[j] = first rank with cdf_ > j/kZipfGuideSize (clamped to the
  // last rank), kZipfGuideSize + 1 entries.
  std::vector<double> cdf_;
  std::vector<Uint160> keys_;
  std::vector<std::uint32_t> guide_;
  // Hotspot arc [hot_start_, hot_end_), 1/64 of the ring; 90% of draws
  // land in it.
  Uint160 hot_start_;
  Uint160 hot_end_;
};

}  // namespace dhtlb::serve
