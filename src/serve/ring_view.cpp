#include "serve/ring_view.hpp"

#include <bit>
#include <numeric>

#include "support/check.hpp"
#include "support/sorted_search.hpp"

namespace dhtlb::serve {

namespace {

/// id + 2^b (mod 2^160), the finger point of a route() hop.  For
/// b >= 96 the power lies in the top 64 bits, so one 64-bit add — whose
/// carry past bit 159 wraps away, as the full add's would — stands in
/// for the five-limb add; at 100k vnodes every hop takes this path.
Uint160 finger_point(const Uint160& id, int b) {
  if (b < 96) return id + Uint160::pow2(b);
  const std::uint64_t high = id.high64() + (std::uint64_t{1} << (b - 96));
  auto limbs = id.limbs();
  limbs[0] = static_cast<std::uint32_t>(high >> 32);
  limbs[1] = static_cast<std::uint32_t>(high);
  return Uint160{limbs};
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
  tick_ = tick;
  owner_count_ = world.physical_count();
  ids_.clear();
  owners_.clear();
  sybils_.clear();
  ids_.reserve(n);
  owners_.reserve(n);
  sybils_.reserve(n);
  dir_bits_ = static_cast<int>(std::bit_width(n));
  dir_.assign((std::size_t{1} << dir_bits_) + 1, 0);
  world.for_each_arc([&](const sim::ArcView& arc) {
    ids_.push_back(arc.id);
    owners_.push_back(arc.owner);
    sybils_.push_back(arc.is_sybil ? 1 : 0);
  });
  // Count each bucket's ids into the entry after it; the prefix sum
  // then turns dir_[j] into the number of ids in buckets below j, which
  // is the first index of bucket j.  (Counting, unlike a fill loop per
  // id, has no data-dependent branch to mispredict.)
  std::uint32_t* const counts = dir_.data() + 1;
  for (const Uint160& id : ids_) ++counts[bucket(id)];
  std::partial_sum(dir_.begin(), dir_.end(), dir_.begin());
}

std::size_t RingView::cover(const Uint160& key) const {
  DHTLB_CHECK(!dir_.empty(), "RingView::cover: the view is empty");
  const std::size_t j = bucket(key);
  // Every id below the bucket is < key and every id above it > key, so
  // the answer lies in [dir_[j], dir_[j+1]].
  const std::size_t i = support::binary_lower_bound(
      dir_[j], dir_[j + 1], key,
      [this](std::size_t k) -> const Uint160& { return ids_[k]; });
  return i == ids_.size() ? 0 : i;  // wrap past zero to the smallest id
}

RingView::Route RingView::route(const Uint160& key,
                                std::size_t origin) const {
  DHTLB_CHECK(!dir_.empty(), "RingView::route: the view is empty");
  DHTLB_ASSERT(origin < ids_.size(),
               "RingView::route: origin " << origin << " out of range");
  Route r;
  r.index = origin;
  const std::size_t target = cover(key);
  while (r.index != target) {
    const Uint160& cur_id = ids_[r.index];
    // Clockwise distance from the current vnode to the key.  Nonzero
    // here: key == id(cur) would make cur its own cover.
    const Uint160 dist = key - cur_id;
    // Longest finger not overshooting the key: id + 2^b with
    // 2^b <= dist.  Its covering vnode lies in (cur, target] clockwise,
    // so the remaining distance drops below 2^b — at least a halving
    // per hop.
    r.index = cover(finger_point(cur_id, dist.bit_length() - 1));
    ++r.hops;
    DHTLB_CHECK(r.hops < kMaxHops,
                "RingView::route: " << r.hops
                                    << " hops without convergence — "
                                       "corrupt snapshot");
  }
  return r;
}

}  // namespace dhtlb::serve
