#include "serve/traffic.hpp"

#include <algorithm>
#include <array>

#include "hashing/sha1.hpp"
#include "support/check.hpp"

namespace dhtlb::serve {

namespace {

// Stream label for the hotspot arc's position: derived from the run
// seed but decorrelated from the engine's tick streams and the serve
// shards' per-(tick, shard) streams.
constexpr std::uint64_t kHotArcStream = 0x40A2C5E12EULL;  // "hot arc serve"

// Hotspot model: 90% of draws land in one arc 1/64 of the ring wide.
// The width is max() * kHotArcScale / 2^32 in fixed point, the
// construction the scenario VM uses for inject-hotspot, so serve
// hotspots and scripted hotspot floods agree on what "1/64 of the ring"
// means.
constexpr double kHotspotFraction = 0.9;
constexpr std::uint32_t kHotArcScale = std::uint32_t{1} << 26;  // 2^32 / 64

}  // namespace

std::optional<Traffic> parse_traffic(std::string_view name) {
  if (name == "uniform") return Traffic::kUniform;
  if (name == "zipf") return Traffic::kZipf;
  if (name == "hotspot") return Traffic::kHotspot;
  return std::nullopt;
}

std::string_view traffic_name(Traffic traffic) {
  switch (traffic) {
    case Traffic::kUniform: return "uniform";
    case Traffic::kZipf: return "zipf";
    case Traffic::kHotspot: return "hotspot";
  }
  return "unknown";
}

KeyStream::KeyStream(Traffic traffic, const TrafficConfig& config,
                     std::uint64_t run_seed)
    : traffic_(traffic) {
  switch (traffic_) {
    case Traffic::kUniform:
      break;
    case Traffic::kZipf: {
      const std::uint64_t n = config.key_universe;
      DHTLB_CHECK(n > 0 && n <= kMaxKeyUniverse,
                  "traffic: zipf key_universe " << n
                                                << " outside [1, 2^22]");
      // Harmonic weights 1/(r+1), folded into a normalized CDF with
      // plain additions and divisions only (IEEE-exact everywhere).
      cdf_.resize(n);
      keys_.resize(n);
      double total = 0.0;
      for (std::uint64_t r = 0; r < n; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf_[r] = total;
      }
      // Rank r's key is SHA-1 of r, hashed a chunk of ranks at a time.
      std::array<std::uint64_t, 256> ranks{};
      for (std::uint64_t begin = 0; begin < n; begin += ranks.size()) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(ranks.size(), n - begin));
        for (std::size_t i = 0; i < count; ++i) ranks[i] = begin + i;
        hashing::Sha1::hash_u64_batch(std::span(ranks).first(count),
                                      std::span(keys_).subspan(begin, count));
      }
      for (double& c : cdf_) c /= total;
      cdf_.back() = 1.0;  // guard against accumulated rounding
      // guide_[j] = first rank with cdf > j/2^16, or the last rank.  A
      // draw u in [j/2^16, (j+1)/2^16) has its answer in
      // [guide_[j], guide_[j+1]]; j/2^16 and u·2^16 are exact in IEEE
      // arithmetic, so the narrowed search picks the very same rank.
      guide_.resize(kZipfGuideSize + 1);
      std::uint32_t r = 0;
      for (std::size_t j = 0; j <= kZipfGuideSize; ++j) {
        const double threshold =
            static_cast<double>(j) / static_cast<double>(kZipfGuideSize);
        while (r + 1 < n && !(cdf_[r] > threshold)) ++r;
        guide_[j] = r;
      }
      break;
    }
    case Traffic::kHotspot: {
      support::Rng arc_rng(support::stream_seed(run_seed, kHotArcStream));
      hot_start_ = arc_rng.uniform_u160();
      hot_end_ = hot_start_ + Uint160::max().shr(32).mul_small(kHotArcScale);
      break;
    }
  }
}

Uint160 KeyStream::draw(support::Rng& rng) const {
  switch (traffic_) {
    case Traffic::kUniform:
      return rng.uniform_u160();
    case Traffic::kZipf: {
      const double u = rng.uniform();
      // First rank whose CDF exceeds u, within u's guide bucket.
      const auto j = static_cast<std::size_t>(
          u * static_cast<double>(kZipfGuideSize));
      std::size_t lo = guide_[j];
      std::size_t hi = guide_[j + 1];
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] > u) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return keys_[lo];
    }
    case Traffic::kHotspot:
      if (rng.bernoulli(kHotspotFraction)) {
        return rng.uniform_in_arc(hot_start_, hot_end_);
      }
      return rng.uniform_u160();
  }
  return rng.uniform_u160();  // unreachable
}

}  // namespace dhtlb::serve
