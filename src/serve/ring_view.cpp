#include "serve/ring_view.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>

#include "support/check.hpp"
#include "support/prefetch.hpp"
#include "support/sorted_search.hpp"

namespace dhtlb::serve {

namespace {

/// Lane target before the lane's first cover, of the key itself, has
/// found it.
constexpr std::size_t kUnresolved = std::numeric_limits<std::size_t>::max();

/// One lookup in flight in route_batch().  No member initializers: a
/// lane is written in full when a lookup loads into it, and route(),
/// a batch of one, should not pay to clear the other lanes.
struct Lane {
  Uint160 key;
  std::uint64_t point;  // top 64 bits of what this round covers
  std::size_t lookup;   // index into the batch
  std::size_t cur;      // the vnode the walk stands on
  std::size_t target;   // kUnresolved until the key's own cover
  std::size_t bucket;   // point's dir_ bucket, then its bounds
  std::size_t lo;
  std::size_t hi;
  std::uint32_t hops;
};

/// The whole point a lane covers this round, from full ids: the key
/// until its target is known, then the longest finger not overshooting
/// the key, id + 2^b with 2^b <= the clockwise distance (nonzero:
/// key == id(cur) would make cur its own cover).
Uint160 full_point(const RingView& view, const Lane& lane) {
  if (lane.target == kUnresolved) return lane.key;
  const Uint160 cur_id = view.id_at(lane.cur);
  return cur_id + Uint160::pow2((lane.key - cur_id).bit_length() - 1);
}

}  // namespace

RingView RingView::freeze(const sim::World& world, std::uint64_t tick) {
  RingView view;
  view.refreeze(world, tick);
  return view;
}

void RingView::refreeze(const sim::World& world, std::uint64_t tick) {
  const std::size_t n = world.vnode_count();
  DHTLB_CHECK(n > 0, "RingView::freeze: ring is empty");
  DHTLB_CHECK(n <= UINT32_MAX,
              "RingView::freeze: " << n << " vnodes overflow the directory");
  DHTLB_CHECK(world.physical_count() < kSybilBit,
              "RingView::freeze: " << world.physical_count()
                                   << " physical nodes overflow the owner "
                                      "word");
  tick_ = tick;
  owner_count_ = world.physical_count();
  prefixes_.clear();
  tails_.clear();
  owners_.clear();
  prefixes_.reserve(n);
  tails_.reserve(n);
  owners_.reserve(n);
  dir_bits_ = static_cast<int>(std::bit_width(n));
  dir_.assign((std::size_t{1} << dir_bits_) + 1, 0);
  world.for_each_arc([&](const sim::ArcView& arc) {
    const auto& limbs = arc.id.limbs();
    prefixes_.push_back(arc.id.high64());
    tails_.push_back({limbs[2], limbs[3], limbs[4]});
    owners_.push_back(arc.is_sybil ? arc.owner | kSybilBit : arc.owner);
  });
  // Count each bucket's ids into the entry after it; the prefix sum
  // then turns dir_[j] into the number of ids in buckets below j, which
  // is the first index of bucket j.  (Counting, unlike a fill loop per
  // id, has no data-dependent branch to mispredict.)
  std::uint32_t* const counts = dir_.data() + 1;
  for (const std::uint64_t prefix : prefixes_) ++counts[bucket(prefix)];
  std::partial_sum(dir_.begin(), dir_.end(), dir_.begin());
}

template <typename FullPoint>
std::size_t RingView::cover_in(std::size_t lo, std::size_t hi,
                               std::uint64_t prefix,
                               const FullPoint& full) const {
  std::size_t i = support::prefix_lower_bound(prefixes_, lo, hi, prefix);
  if (i < hi && prefixes_[i] == prefix) {
    // A tie: ids sharing the point's prefix sit in [i, hi) and only
    // their tails order them against the point.
    i = support::binary_lower_bound(
        i, hi, full(), [this](std::size_t k) { return id_at(k); });
  }
  return i == prefixes_.size() ? 0 : i;  // wrap past zero to the smallest
}

std::size_t RingView::cover(const Uint160& key) const {
  DHTLB_CHECK(!dir_.empty(), "RingView::cover: the view is empty");
  const std::uint64_t prefix = key.high64();
  const std::size_t j = bucket(prefix);
  return cover_in(dir_[j], dir_[j + 1], prefix, [&key] { return key; });
}

RingView::Route RingView::route(const Uint160& key,
                                std::size_t origin) const {
  DHTLB_CHECK(!dir_.empty(), "RingView::route: the view is empty");
  Route r;
  route_batch({&key, 1}, {&origin, 1}, {&r, 1});
  return r;
}

void RingView::route_batch(std::span<const Uint160> keys,
                           std::span<const std::size_t> origins,
                           std::span<Route> out) const {
  DHTLB_CHECK(!dir_.empty(), "RingView::route_batch: the view is empty");
  DHTLB_CHECK(origins.size() == keys.size() && out.size() == keys.size(),
              "RingView::route_batch: " << keys.size() << " keys, "
                                        << origins.size() << " origins, "
                                        << out.size() << " routes");
  if (!origins.empty()) {
    const std::size_t top = *std::max_element(origins.begin(), origins.end());
    DHTLB_CHECK(top < size(), "RingView::route_batch: origin "
                                  << top << " out of range for a view of "
                                  << size() << " vnodes");
  }
  std::array<Lane, kRouteLanes> lanes;
  std::size_t active = 0;
  std::size_t next = 0;  // first lookup not yet given a lane
  const auto load = [&](Lane& lane) {
    lane.key = keys[next];
    lane.lookup = next;
    lane.cur = origins[next];
    lane.target = kUnresolved;
    lane.hops = 0;
    // The origin's prefix seeds the first finger point, a round from now.
    support::prefetch(&prefixes_[lane.cur]);
    ++next;
  };
  while (active < kRouteLanes && next < keys.size()) load(lanes[active++]);
  while (active > 0) {
    // Stage 1: each lane's point prefix — the key's until its target is
    // known, then the finger point's (see full_point).  Its covering
    // vnode lies in (cur, target] clockwise, so the remaining distance
    // drops below the finger — at least a halving per hop.  The finger
    // comes from the prefix distance d when the low bits' borrow cannot
    // change its bit width; otherwise from the full distance.  Touch
    // the point's directory entry.
    for (std::size_t l = 0; l < active; ++l) {
      Lane& lane = lanes[l];
      if (lane.target == kUnresolved) {
        lane.point = lane.key.high64();
      } else {
        const std::uint64_t cur = prefixes_[lane.cur];
        const std::uint64_t d = lane.key.high64() - cur;
        lane.point = (d & (d - 1)) != 0
                         ? cur + (std::uint64_t{1} << (std::bit_width(d) - 1))
                         : full_point(*this, lane).high64();
      }
      lane.bucket = bucket(lane.point);
      support::prefetch(&dir_[lane.bucket]);
    }
    // Stage 2: the bucket's bounds; touch its first prefix (an empty
    // bucket past the last id has none, so clamp).
    for (std::size_t l = 0; l < active; ++l) {
      Lane& lane = lanes[l];
      lane.lo = dir_[lane.bucket];
      lane.hi = dir_[lane.bucket + 1];
      support::prefetch(&prefixes_[std::min(lane.lo, prefixes_.size() - 1)]);
    }
    // Stage 3: cover the point; retire lanes at their target and hand
    // their slot to the next lookup, or to the last active lane (which
    // has not yet run this stage this round) once the batch is out.
    for (std::size_t l = 0; l < active;) {
      Lane& lane = lanes[l];
      const std::size_t i = cover_in(lane.lo, lane.hi, lane.point,
                                     [&] { return full_point(*this, lane); });
      if (lane.target == kUnresolved) {
        lane.target = i;
      } else {
        lane.cur = i;
        ++lane.hops;
        DHTLB_CHECK(lane.hops < kMaxHops,
                    "RingView::route_batch: "
                        << lane.hops
                        << " hops without convergence — corrupt snapshot");
      }
      if (lane.cur != lane.target) {
        ++l;
        continue;
      }
      out[lane.lookup] = Route{lane.cur, lane.hops};
      if (next < keys.size()) {
        load(lane);
        ++l;
      } else {
        lane = lanes[--active];
      }
    }
  }
}

}  // namespace dhtlb::serve
