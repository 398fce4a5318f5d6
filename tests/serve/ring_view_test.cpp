// RingView: frozen-snapshot correctness — freeze vs the live world,
// cover vs arc_covering, greedy perfect-finger routing, and snapshot
// isolation under churn.
#include "serve/ring_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "sim/params.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

namespace dhtlb::serve {
namespace {

sim::Params small_params() {
  sim::Params p;
  p.initial_nodes = 64;
  p.total_tasks = 640;
  return p;
}

TEST(RingViewTest, FreezeMatchesWorldArcs) {
  support::Rng rng(7);
  sim::World world(small_params(), rng);
  const RingView view = RingView::freeze(world, 3);

  EXPECT_EQ(view.tick(), 3u);
  EXPECT_EQ(view.size(), world.vnode_count());
  EXPECT_FALSE(view.empty());

  std::size_t i = 0;
  world.for_each_arc([&](const sim::ArcView& arc) {
    ASSERT_LT(i, view.size());
    EXPECT_EQ(view.id_at(i), arc.id);
    EXPECT_EQ(view.owner_at(i), arc.owner);
    EXPECT_EQ(view.sybil_at(i), arc.is_sybil);
    ++i;
  });
  EXPECT_EQ(i, view.size());
}

TEST(RingViewTest, CoverMatchesArcCoveringOnSevenSeeds) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u}) {
    support::Rng rng(seed);
    sim::World world(small_params(), rng);
    const RingView view = RingView::freeze(world, 0);

    support::Rng probe(support::mix_seed(seed, 0xC0FFEE));
    for (int k = 0; k < 500; ++k) {
      const Uint160 point = probe.uniform_u160();
      const sim::ArcView arc = world.arc_covering(point);
      const std::size_t idx = view.cover(point);
      EXPECT_EQ(view.id_at(idx), arc.id)
          << "seed " << seed << " probe " << k;
      EXPECT_EQ(view.owner_at(idx), arc.owner);
    }
    // Exact boundaries: a vnode's own ID is covered by that vnode; one
    // past it belongs to the successor.
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_EQ(view.cover(view.id_at(i)), i);
      const std::size_t succ = view.next(i);
      EXPECT_EQ(view.cover(view.id_at(i) + Uint160::pow2(0)), succ);
    }
  }
}

TEST(RingViewTest, RouteReachesCoverFromEveryOrigin) {
  support::Rng rng(42);
  sim::World world(small_params(), rng);
  const RingView view = RingView::freeze(world, 0);

  support::Rng probe(99);
  for (int k = 0; k < 300; ++k) {
    const Uint160 key = probe.uniform_u160();
    const std::size_t target = view.cover(key);
    const std::size_t origin =
        static_cast<std::size_t>(probe.below(view.size()));
    const RingView::Route route = view.route(key, origin);
    EXPECT_EQ(route.index, target);
    // Perfect fingers on an n-vnode ring: O(log n) hops, and never the
    // defensive cap.
    EXPECT_LE(route.hops, 20u);
  }
  // Routing from the target itself is free.
  const Uint160 key = probe.uniform_u160();
  const std::size_t target = view.cover(key);
  EXPECT_EQ(view.route(key, target).hops, 0u);
}

// The canonical Chord lookup on the frozen ring: walk clockwise from
// `origin` until the arc (pred, id] covers the key.
std::size_t successor_walk(const RingView& view, const Uint160& key,
                           std::size_t origin) {
  if (view.size() == 1) return 0;  // one vnode owns the whole ring
  std::size_t i = origin;
  std::size_t pred = origin == 0 ? view.size() - 1 : origin - 1;
  for (std::size_t step = 0; step < view.size(); ++step) {
    const Uint160 offset = key - view.id_at(pred);
    if (!offset.is_zero() && offset <= view.id_at(i) - view.id_at(pred)) {
      return i;
    }
    pred = i;
    i = view.next(i);
  }
  ADD_FAILURE() << "successor walk found no arc covering " << key;
  return 0;
}

// The greedy perfect-finger walk of RingView::route, with every hop's
// cover found by a plain whole-array std::lower_bound.
RingView::Route reference_route(const RingView& view, const Uint160& key,
                                std::size_t origin) {
  std::vector<Uint160> ids;
  for (std::size_t i = 0; i < view.size(); ++i) ids.push_back(view.id_at(i));
  const auto cover = [&ids](const Uint160& point) -> std::size_t {
    const auto it = std::lower_bound(ids.begin(), ids.end(), point);
    return it == ids.end() ? 0 : static_cast<std::size_t>(it - ids.begin());
  };
  RingView::Route r;
  r.index = origin;
  const std::size_t target = cover(key);
  while (r.index != target && r.hops < RingView::kMaxHops) {
    const Uint160 dist = key - ids[r.index];
    r.index = cover(ids[r.index] + Uint160::pow2(dist.bit_length() - 1));
    ++r.hops;
  }
  return r;
}

TEST(RingViewTest, RouteDifferentialAgainstSuccessorWalkOnSevenSeeds) {
  // The greedy finger route must land exactly where a plain clockwise
  // successor walk lands, in exactly the hops of a reference greedy
  // walk that searches the whole ring per hop.  Ring sizes straddle the
  // kernel's interpolation threshold (16 candidates), and origins sit
  // before, after and at the covering vnode.
  const std::uint64_t seeds[] = {11, 22, 33, 44, 55, 66, 77};
  const std::uint32_t sizes[] = {1, 2, 15, 16, 17, 64, 2000};
  for (std::size_t c = 0; c < std::size(seeds); ++c) {
    for (const std::uint32_t nodes : sizes) {
      sim::Params params;
      params.initial_nodes = nodes;
      params.total_tasks = 10;
      support::Rng rng(support::mix_seed(seeds[c], nodes));
      sim::World world(params, rng);
      const RingView view = RingView::freeze(world, 0);
      const std::size_t n = view.size();

      support::Rng probe(support::mix_seed(seeds[c], 0xD1FF));
      for (int k = 0; k < 60; ++k) {
        // Uniform keys, plus exact vnode ids and their neighbours.
        Uint160 key = probe.uniform_u160();
        const Uint160 id = view.id_at(static_cast<std::size_t>(probe.below(n)));
        if (k % 3 == 1) key = id;
        if (k % 3 == 2) key = id + Uint160::pow2(0);
        const std::size_t expect = successor_walk(view, key, 0);
        const std::size_t origins[] = {
            expect,
            expect == 0 ? n - 1 : expect - 1,
            view.next(expect),
            0,
            n - 1,
            static_cast<std::size_t>(probe.below(n))};
        for (const std::size_t origin : origins) {
          ASSERT_EQ(successor_walk(view, key, origin), expect);
          const RingView::Route ref = reference_route(view, key, origin);
          const RingView::Route route = view.route(key, origin);
          EXPECT_EQ(route.index, expect)
              << "seed " << seeds[c] << " size " << n << " probe " << k
              << " origin " << origin;
          EXPECT_EQ(route.hops, ref.hops)
              << "seed " << seeds[c] << " size " << n << " probe " << k
              << " origin " << origin;
        }
      }
    }
  }
}

TEST(RingViewTest, SnapshotIsolationUnderChurn) {
  support::Rng rng(1234);
  sim::World world(small_params(), rng);
  const RingView before = RingView::freeze(world, 1);
  const std::size_t size_before = before.size();
  std::vector<Uint160> ids_before;
  for (std::size_t i = 0; i < before.size(); ++i) {
    ids_before.push_back(before.id_at(i));
  }

  // Mutate the world hard: departures + joins reshape the ring.
  support::Rng churn_rng(5678);
  for (int i = 0; i < 10; ++i) {
    world.depart(world.alive_indices().front());
    world.join_from_pool(churn_rng);
  }

  // The frozen view is unaffected — reads keep answering from the old
  // ring (readers never see a half-updated ring).
  ASSERT_EQ(before.size(), size_before);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.id_at(i), ids_before[i]);
  }
  // And a fresh freeze sees the new ring.
  const RingView after = RingView::freeze(world, 2);
  EXPECT_EQ(after.size(), world.vnode_count());
}

}  // namespace
}  // namespace dhtlb::serve
