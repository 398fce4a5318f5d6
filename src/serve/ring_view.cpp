#include "serve/ring_view.hpp"

#include "support/check.hpp"
#include "support/sorted_search.hpp"

namespace dhtlb::serve {

RingView RingView::freeze(const sim::World& world, std::uint64_t tick) {
  RingView view;
  view.tick_ = tick;
  view.owner_count_ = world.physical_count();
  const std::size_t n = world.vnode_count();
  DHTLB_CHECK(n > 0, "RingView::freeze: ring is empty");
  view.ids_.reserve(n);
  view.owners_.reserve(n);
  view.sybils_.reserve(n);
  world.for_each_arc([&](const sim::ArcView& arc) {
    view.ids_.push_back(arc.id);
    view.owners_.push_back(arc.owner);
    view.sybils_.push_back(arc.is_sybil ? 1 : 0);
  });
  return view;
}

std::size_t RingView::cover(const Uint160& key) const {
  const std::size_t i = lower_bound(0, ids_.size(), 0, ~std::uint64_t{0}, key);
  return i == ids_.size() ? 0 : i;  // wrap past zero to the smallest id
}

std::size_t RingView::lower_bound(std::size_t lo, std::size_t hi,
                                  std::uint64_t lo_high,
                                  std::uint64_t hi_high,
                                  const Uint160& point) const {
  return support::interpolated_lower_bound(
      lo, hi, lo_high, hi_high, point,
      [this](std::size_t i) -> const Uint160& { return ids_[i]; });
}

RingView::Route RingView::route(const Uint160& key,
                                std::size_t origin) const {
  DHTLB_ASSERT(origin < ids_.size(),
               "RingView::route: origin " << origin << " out of range");
  const std::size_t n = ids_.size();
  Route r;
  r.index = origin;
  const std::size_t target = cover(key);
  const std::uint64_t target_high = ids_[target].high64();
  while (r.index != target) {
    const std::size_t cur = r.index;
    const Uint160& cur_id = ids_[cur];
    // Clockwise distance from the current vnode to the key.  Nonzero
    // here: key == id(cur) would make cur its own cover.
    const Uint160 dist = key - cur_id;
    // Longest finger not overshooting the key: id + 2^b with
    // 2^b <= dist.  The vnode covering that point lies in (cur, target]
    // clockwise, so the remaining distance drops below 2^b — at least a
    // halving per hop — and only that bracket needs searching.
    const Uint160 point = cur_id + Uint160::pow2(dist.bit_length() - 1);
    if (cur < target) {
      r.index = lower_bound(cur + 1, target + 1, cur_id.high64(),
                            target_high, point);
    } else if (cur_id < point) {
      // The bracket wraps, but the point does not: it lies above id(cur),
      // and past the last id its cover wraps to index 0.
      const std::size_t i = lower_bound(cur + 1, n, cur_id.high64(),
                                        ids_[n - 1].high64(), point);
      r.index = i == n ? 0 : i;
    } else {
      // The point wrapped past zero: its cover is at or before target.
      r.index = lower_bound(0, target + 1, 0, target_high, point);
    }
    ++r.hops;
    DHTLB_CHECK(r.hops < kMaxHops,
                "RingView::route: " << r.hops
                                    << " hops without convergence — "
                                       "corrupt snapshot");
  }
  return r;
}

}  // namespace dhtlb::serve
