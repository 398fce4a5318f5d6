// RingView: frozen-snapshot correctness — freeze vs the live world,
// cover vs arc_covering, greedy perfect-finger routing, and snapshot
// isolation under churn.
#include "serve/ring_view.hpp"

#include <gtest/gtest.h>

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

TEST(RingViewTest, RouteDifferentialAgainstSuccessorWalkOnSevenSeeds) {
  // The greedy finger route must land exactly where a plain clockwise
  // successor walk (the canonical Chord lookup on the frozen ring)
  // lands — never overshoot the covering vnode.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u, 77u}) {
    support::Rng rng(seed);
    sim::World world(small_params(), rng);
    const RingView view = RingView::freeze(world, 0);

    support::Rng probe(support::mix_seed(seed, 0xD1FF));
    for (int k = 0; k < 200; ++k) {
      const Uint160 key = probe.uniform_u160();
      const std::size_t origin =
          static_cast<std::size_t>(probe.below(view.size()));
      // Successor walk: advance clockwise until the arc (pred, id]
      // covers the key.
      std::size_t walk = view.cover(key);
      const RingView::Route route = view.route(key, origin);
      EXPECT_EQ(route.index, walk) << "seed " << seed << " probe " << k;
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
