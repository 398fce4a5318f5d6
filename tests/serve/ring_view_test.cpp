// RingView: frozen-snapshot correctness — freeze vs the live world,
// cover vs arc_covering, greedy perfect-finger routing (uniform rings,
// directory-size boundaries, Sybil clusters), refreeze in place vs a
// fresh freeze, and snapshot isolation under churn.
#include "serve/ring_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
  // walk that searches the whole ring per hop.  Ring sizes run from one
  // vnode up and straddle the radix directory's bucket-count steps (2^8
  // buckets up to 255 vnodes, 2^9 from 256; 2^12 up to 4095, 2^13 from
  // 4096), and origins sit before, after and at the covering vnode.
  const std::uint64_t seeds[] = {11, 22, 33, 44, 55, 66, 77};
  const std::uint32_t sizes[] = {1,   2,   15,   16,   17,   64,  255,
                                 256, 257, 2000, 4095, 4096, 4097};
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

TEST(RingViewTest, ClusteredSybilsShareOneDirectoryBucket) {
  // 1200 Sybils at consecutive ids just past one vnode: more than a
  // thousand ids land in one bucket of the radix directory, the case a
  // Sybil-heavy strategy produces.  Every key at, just below and just
  // above each id, and past both ends of the ring, must cover and route
  // exactly as the successor walk and the whole-ring reference do.
  support::Rng rng(2024);
  sim::World world(small_params(), rng);
  const std::vector<NodeIndex> alive = world.alive_indices();
  const Uint160 base = world.ring_ids()[10];
  for (std::uint64_t k = 1; k <= 1200; ++k) {
    ASSERT_TRUE(
        world.create_sybil(alive[k % alive.size()], base + Uint160{k}));
  }
  const RingView view = RingView::freeze(world, 0);
  const std::size_t n = view.size();
  ASSERT_EQ(n, small_params().initial_nodes + 1200u);

  // The directory has 2^bit_width(n) buckets keyed by the top id bits.
  const int shift = 64 - static_cast<int>(std::bit_width(n));
  std::size_t run = 1;
  std::size_t longest = 1;
  for (std::size_t i = 1; i < n; ++i) {
    const bool same = view.id_at(i).high64() >> shift ==
                      view.id_at(i - 1).high64() >> shift;
    run = same ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  ASSERT_GE(longest, 1000u);

  const Uint160 one{1};
  std::vector<Uint160> keys = {Uint160::zero(), view.id_at(0) - one,
                               view.id_at(n - 1) + one, Uint160::max()};
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(view.id_at(i) - one);
    keys.push_back(view.id_at(i));
    keys.push_back(view.id_at(i) + one);
  }
  support::Rng probe(77);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Uint160& key = keys[k];
    const std::size_t expect = successor_walk(view, key, 0);
    ASSERT_EQ(view.cover(key), expect) << "key " << key;
    // Long routes into the cluster and out of it, plus a random origin
    // on every tenth key (reference_route copies the whole ring).
    std::vector<std::size_t> origins = {view.next(expect), 0};
    if (k % 10 == 0) {
      origins.push_back(static_cast<std::size_t>(probe.below(n)));
    }
    for (const std::size_t origin : origins) {
      const RingView::Route ref = reference_route(view, key, origin);
      const RingView::Route route = view.route(key, origin);
      EXPECT_EQ(route.index, expect) << "key " << key << " origin " << origin;
      EXPECT_EQ(route.hops, ref.hops) << "key " << key << " origin " << origin;
    }
  }
}

TEST(RingViewTest, RefreezeEqualsFreshFreezeAfterChurnAndSybilWaves) {
  // One view refrozen in place, wave after wave, must equal a fresh
  // freeze of the same world: every field, and every cover.  The ring
  // grows past a directory step (bit_width 8 to 9 at 256 vnodes) and
  // shrinks back, so the directory is resized both ways.
  sim::Params params;
  params.initial_nodes = 200;
  params.total_tasks = 2000;
  support::Rng rng(99);
  sim::World world(params, rng);
  RingView view = RingView::freeze(world, 0);
  support::Rng churn_rng(4242);
  support::Rng probe(31);
  for (std::uint64_t wave = 1; wave <= 6; ++wave) {
    for (int i = 0; i < 10; ++i) {
      world.depart(world.alive_indices()[churn_rng.below(
          world.alive_indices().size())]);
      world.join_from_pool(churn_rng);
    }
    if (wave % 3 != 0) {
      for (int i = 0; i < 60; ++i) {
        const std::vector<NodeIndex>& alive = world.alive_indices();
        (void)world.create_sybil(alive[churn_rng.below(alive.size())],
                                 churn_rng.uniform_u160());
      }
    } else {
      const std::vector<NodeIndex> alive = world.alive_indices();
      for (const NodeIndex idx : alive) world.remove_sybils(idx);
    }
    view.refreeze(world, wave);
    const RingView fresh = RingView::freeze(world, wave);
    ASSERT_EQ(view.tick(), fresh.tick());
    ASSERT_EQ(view.size(), fresh.size()) << "wave " << wave;
    if (wave % 3 == 0) {
      ASSERT_LT(view.size(), 256u) << "wave " << wave;
    } else if (wave % 3 == 2) {
      ASSERT_GE(view.size(), 256u) << "wave " << wave;
    }
    ASSERT_EQ(view.owner_count(), fresh.owner_count());
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view.id_at(i), fresh.id_at(i)) << "wave " << wave;
      ASSERT_EQ(view.owner_at(i), fresh.owner_at(i));
      ASSERT_EQ(view.sybil_at(i), fresh.sybil_at(i));
      ASSERT_EQ(view.cover(view.id_at(i)), i);
      ASSERT_EQ(view.cover(view.id_at(i) + Uint160{1}), fresh.next(i));
    }
    for (int k = 0; k < 500; ++k) {
      const Uint160 key = probe.uniform_u160();
      ASSERT_EQ(view.cover(key), fresh.cover(key)) << "wave " << wave;
      const std::size_t origin =
          static_cast<std::size_t>(probe.below(view.size()));
      const RingView::Route a = view.route(key, origin);
      const RingView::Route b = fresh.route(key, origin);
      ASSERT_EQ(a.index, b.index);
      ASSERT_EQ(a.hops, b.hops);
    }
  }
}

TEST(RingViewDeathTest, EmptyViewFailsACheckInsteadOfReading) {
  const RingView empty;
  ASSERT_TRUE(empty.empty());
  EXPECT_DEATH((void)empty.cover(Uint160{1}),
               "DHTLB_CHECK failed.*RingView::cover: the view is empty");
  EXPECT_DEATH((void)empty.route(Uint160{1}, 0),
               "DHTLB_CHECK failed.*RingView::route: the view is empty");
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
