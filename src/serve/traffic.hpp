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
//   hotspot — a fraction of the probability mass lands uniformly inside
//             one narrow ring arc (position derived from the run seed),
//             the rest is uniform.  Models a flash crowd parked on one
//             key range — the adversarial case for ring balance.
//
// Determinism: a KeyStream is immutable after construction (shared by
// all serve shards); every draw's randomness comes from the caller's
// per-(tick, shard) Rng stream, and the zipf CDF is built with plain
// IEEE +,/ arithmetic — no libm calls whose rounding could differ
// across toolchains — so the same (config, seed) produces the same key
// sequence on every machine, at any thread or reader count.
#pragma once

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

struct TrafficConfig {
  /// Zipf universe size (distinct keys).  Bounded so the precomputed
  /// CDF + key table stay cheap: freeze() DHTLB_CHECKs <= 2^22.
  std::uint64_t key_universe = 100000;
  /// Hotspot: probability a draw lands inside the hot arc.
  double hotspot_fraction = 0.9;
  /// Hotspot: hot-arc width as a fraction of the ring (in (0, 1)).
  double hotspot_arc = 0.015625;  // 1/64 of the key space
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
  double hotspot_fraction_ = 0.0;
  // Zipf: cdf_[r] = P(rank <= r); keys_[r] = SHA-1(rank r).
  std::vector<double> cdf_;
  std::vector<Uint160> keys_;
  // Hotspot arc [hot_start_, hot_end_), width = hotspot_arc of the ring.
  Uint160 hot_start_;
  Uint160 hot_end_;
};

}  // namespace dhtlb::serve
