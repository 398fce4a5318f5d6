// RingView: frozen-snapshot correctness — freeze vs the live world,
// cover vs arc_covering, greedy perfect-finger routing (uniform rings,
// directory-size boundaries, Sybil clusters), batched routing at lane
// and refill boundaries, 64-bit prefix ties and borrows, refreeze in
// place vs a fresh freeze, and snapshot isolation under churn.
#include "serve/ring_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <set>
#include <string>
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

// The view's ids in ring order, for reference_route.
std::vector<Uint160> ids_of(const RingView& view) {
  std::vector<Uint160> ids;
  for (std::size_t i = 0; i < view.size(); ++i) ids.push_back(view.id_at(i));
  return ids;
}

// The greedy perfect-finger walk of RingView::route over the ids of a
// view, with every hop's cover found by a plain whole-array
// std::lower_bound.
RingView::Route reference_route(const std::vector<Uint160>& ids,
                                const Uint160& key, std::size_t origin) {
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

RingView::Route reference_route(const RingView& view, const Uint160& key,
                                std::size_t origin) {
  return reference_route(ids_of(view), key, origin);
}

// A 64-node world plus 1200 Sybils at consecutive ids just past one
// vnode: more than a thousand ids land in one bucket of the radix
// directory, the case a Sybil-heavy strategy produces.
RingView clustered_sybil_view() {
  support::Rng rng(2024);
  sim::World world(small_params(), rng);
  const std::vector<NodeIndex> alive = world.alive_indices();
  const Uint160 base = world.ring_ids()[10];
  for (std::uint64_t k = 1; k <= 1200; ++k) {
    EXPECT_TRUE(
        world.create_sybil(alive[k % alive.size()], base + Uint160{k}));
  }
  return RingView::freeze(world, 0);
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
  // Every key at, just below and just above each id of the clustered
  // world, and past both ends of the ring, must cover and route exactly
  // as the successor walk and the whole-ring reference do.
  const RingView view = clustered_sybil_view();
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
  const std::vector<Uint160> ids = ids_of(view);
  support::Rng probe(77);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Uint160& key = keys[k];
    const std::size_t expect = successor_walk(view, key, 0);
    ASSERT_EQ(view.cover(key), expect) << "key " << key;
    // Long routes into the cluster and out of it, plus a random origin
    // on every tenth key.
    std::vector<std::size_t> origins = {view.next(expect), 0};
    if (k % 10 == 0) {
      origins.push_back(static_cast<std::size_t>(probe.below(n)));
    }
    for (const std::size_t origin : origins) {
      const RingView::Route ref = reference_route(ids, key, origin);
      const RingView::Route route = view.route(key, origin);
      EXPECT_EQ(route.index, expect) << "key " << key << " origin " << origin;
      EXPECT_EQ(route.hops, ref.hops) << "key " << key << " origin " << origin;
    }
  }
}

// route_batch over `keys` and `origins`, which must give, lookup by
// lookup, exactly the reference walk's index and hops.
std::vector<RingView::Route> expect_batch_matches_reference(
    const RingView& view, const std::vector<Uint160>& keys,
    const std::vector<std::size_t>& origins, const std::string& context) {
  std::vector<RingView::Route> routes(keys.size());
  view.route_batch(keys, origins, routes);
  const std::vector<Uint160> ids = ids_of(view);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const RingView::Route ref = reference_route(ids, keys[i], origins[i]);
    EXPECT_EQ(routes[i].index, ref.index) << context << " lookup " << i;
    EXPECT_EQ(routes[i].hops, ref.hops) << context << " lookup " << i;
  }
  return routes;
}

TEST(RingViewTest, RouteBatchMatchesRouteOnSevenSeeds) {
  // Batches shorter than, equal to and just past the lane count, and
  // past a whole refill cycle, over views from one vnode up across the
  // directory's bucket-count steps.  Every third lookup starts at its
  // own target (0 hops: the lane retires on its first cover), every
  // third key is a vnode id, and every fifth lies above the largest id
  // (its walk wraps past zero).
  const std::uint64_t seeds[] = {11, 22, 33, 44, 55, 66, 77};
  const std::uint32_t sizes[] = {1, 2, 255, 256, 257, 1000, 4095, 4096, 4097};
  const std::size_t lanes = RingView::kRouteLanes;
  const std::size_t batches[] = {0, 1, lanes - 1, lanes, lanes + 1, 257};
  const Uint160 one{1};
  for (const std::uint64_t seed : seeds) {
    for (const std::uint32_t nodes : sizes) {
      sim::Params params;
      params.initial_nodes = nodes;
      params.total_tasks = 10;
      support::Rng rng(support::mix_seed(seed, nodes));
      sim::World world(params, rng);
      const RingView view = RingView::freeze(world, 0);
      const std::size_t n = view.size();
      const Uint160 top = view.id_at(n - 1);
      support::Rng probe(support::mix_seed(seed, 0xBA7C));
      for (const std::size_t batch : batches) {
        std::vector<Uint160> keys;
        std::vector<std::size_t> origins;
        for (std::size_t k = 0; k < batch; ++k) {
          Uint160 key = probe.uniform_u160();
          if (k % 3 == 1) {
            key = view.id_at(static_cast<std::size_t>(probe.below(n)));
          }
          if (k % 5 == 4 && top != Uint160::max()) {
            key = top + one + Uint160{probe.below(1000)};
            if (key < top) key = Uint160::max();  // no wrap past zero
          }
          keys.push_back(key);
          origins.push_back(k % 3 == 0 ? view.cover(key)
                                       : static_cast<std::size_t>(
                                             probe.below(n)));
        }
        expect_batch_matches_reference(
            view, keys, origins,
            "seed " + std::to_string(seed) + " size " + std::to_string(n) +
                " batch " + std::to_string(batch));
      }
    }
  }

  // The clustered-Sybil world: walks into the 1200-id cluster run many
  // hops while the 0-hop lookups around them retire on their first
  // cover, so lanes retire and refill out of step.
  const RingView view = clustered_sybil_view();
  const std::size_t n = view.size();
  std::vector<Uint160> keys;
  std::vector<std::size_t> origins;
  support::Rng probe(1337);
  for (std::size_t k = 0; k < 257; ++k) {
    const std::size_t i = static_cast<std::size_t>(probe.below(n));
    const Uint160 key = view.id_at(i) - (k % 2 == 0 ? one : Uint160{});
    keys.push_back(key);
    const std::size_t target = view.cover(key);
    origins.push_back(k % 4 == 0 ? view.next(target) : target);
  }
  std::uint32_t max_hops = 0;
  for (const RingView::Route& r :
       expect_batch_matches_reference(view, keys, origins, "clustered")) {
    max_hops = std::max(max_hops, r.hops);
  }
  EXPECT_GE(max_hops, 8u);
}

// The id whose top 64 bits are `prefix` and whose low 96 bits are
// `tail`'s (tail < 2^96).
Uint160 with_prefix(std::uint64_t prefix, const Uint160& tail) {
  return Uint160{prefix}.shl(96) + tail;
}

TEST(RingViewTest, PrefixTiesAndBorrowsRouteLikeTheReference) {
  // Routes step on the ids' top 64 bits and read the low 96 only on a
  // prefix tie, or when the borrow from the low bits could change the
  // finger (prefix distance 0, 1 or a power of two).  Sybils at chosen
  // ids force both: vnodes sharing one prefix, keys at prefix distance
  // d in {0, 1, 2, 2^40 - 1, 2^40, 2^40 + 1, 2^63} from a vnode with
  // low bits below and above the vnode's, and ties at the wrap past
  // zero.  route, route_batch and cover must all match the references.
  support::Rng rng(2718);
  sim::World world(small_params(), rng);
  const std::vector<NodeIndex> alive = world.alive_indices();

  const Uint160 mid = Uint160::pow2(95) + Uint160{12345};
  const Uint160 below = mid - Uint160::pow2(40);
  const Uint160 above = mid + Uint160::pow2(40);
  const Uint160 top_tail = Uint160::pow2(96) - Uint160{1};
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::uint64_t p40 = std::uint64_t{1} << 40;
  // Anchor prefixes: one mid-ring, one whose larger offsets wrap past
  // zero.
  const std::uint64_t anchors[] = {0x5555'5555'5555'5555u, 0 - (p40 >> 1)};
  const std::uint64_t distances[] = {
      0, 1, 2, p40 - 1, p40, p40 + 1, std::uint64_t{1} << 63};

  std::set<Uint160> sybil_ids;
  for (const std::uint64_t a : anchors) {
    // A vnode at every key prefix below and at every finger prefix a
    // walk from the anchor can take, all with the anchor's low bits —
    // so the finger points tie them exactly.
    for (const std::uint64_t x :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, p40 >> 1,
          p40 - 1, p40, p40 + 1, std::uint64_t{1} << 62,
          std::uint64_t{1} << 63}) {
      sybil_ids.insert(with_prefix(a + x, mid));
    }
    // Three vnodes on one prefix, twice.
    for (const std::uint64_t x : {std::uint64_t{0}, p40}) {
      sybil_ids.insert(with_prefix(a + x, below));
      sybil_ids.insert(with_prefix(a + x, above));
    }
  }
  // Equal prefixes at both ends of the ring.
  for (const Uint160& tail : {below, mid}) {
    sybil_ids.insert(with_prefix(kTop, tail));
  }
  for (const Uint160& tail : {mid, above}) {
    sybil_ids.insert(with_prefix(0, tail));
  }
  std::size_t owner = 0;
  for (const Uint160& id : sybil_ids) {
    ASSERT_TRUE(world.create_sybil(alive[owner++ % alive.size()], id))
        << id;
  }
  const RingView view = RingView::freeze(world, 0);
  const std::size_t n = view.size();
  ASSERT_EQ(n, small_params().initial_nodes + sybil_ids.size());
  std::size_t ties = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (view.id_at(i).high64() == view.id_at(i - 1).high64()) ++ties;
  }
  ASSERT_GE(ties, 6u);

  std::vector<Uint160> keys;
  for (const std::uint64_t a : anchors) {
    for (const std::uint64_t d : distances) {
      keys.push_back(with_prefix(a + d, below));
      keys.push_back(with_prefix(a + d, above));
    }
  }
  // Past the largest id (a tie on the top prefix that wraps to index
  // 0) and before the smallest.
  keys.push_back(with_prefix(kTop, above));
  keys.push_back(with_prefix(kTop, top_tail));
  keys.push_back(with_prefix(0, below));
  keys.push_back(Uint160::zero());
  const Uint160 one{1};
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(view.id_at(i) - one);
    keys.push_back(view.id_at(i));
    keys.push_back(view.id_at(i) + one);
  }

  // Every key from every origin: the anchors stand at each chosen
  // prefix distance from the keys built on them.
  std::vector<Uint160> batch_keys;
  std::vector<std::size_t> batch_origins;
  const std::vector<Uint160> ids = ids_of(view);
  for (const Uint160& key : keys) {
    const std::size_t expect = successor_walk(view, key, 0);
    ASSERT_EQ(view.cover(key), expect) << "key " << key;
    for (std::size_t origin = 0; origin < n; ++origin) {
      const RingView::Route ref = reference_route(ids, key, origin);
      const RingView::Route route = view.route(key, origin);
      ASSERT_EQ(route.index, expect) << "key " << key << " origin " << origin;
      ASSERT_EQ(route.hops, ref.hops) << "key " << key << " origin " << origin;
      batch_keys.push_back(key);
      batch_origins.push_back(origin);
    }
  }
  expect_batch_matches_reference(view, batch_keys, batch_origins,
                                 "prefix ties");
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
  const Uint160 key{1};
  const std::size_t origin = 0;
  RingView::Route route;
  EXPECT_DEATH(empty.route_batch({&key, 1}, {&origin, 1}, {&route, 1}),
               "DHTLB_CHECK failed.*RingView::route_batch: the view is empty");
}

TEST(RingViewDeathTest, RouteBatchSpanSizesMustMatch) {
  support::Rng rng(5);
  sim::World world(small_params(), rng);
  const RingView view = RingView::freeze(world, 0);
  const std::vector<Uint160> keys(3, Uint160{1});
  const std::vector<std::size_t> origins(2, 0);
  std::vector<RingView::Route> routes(3);
  EXPECT_DEATH(view.route_batch(keys, origins, routes),
               "DHTLB_CHECK failed.*RingView::route_batch: 3 keys, 2 "
               "origins, 3 routes");
  const std::vector<std::size_t> three_origins(3, 0);
  std::vector<RingView::Route> short_routes(2);
  EXPECT_DEATH(view.route_batch(keys, three_origins, short_routes),
               "DHTLB_CHECK failed.*RingView::route_batch: 3 keys, 3 "
               "origins, 2 routes");
}

TEST(RingViewDeathTest, OriginOutOfRangeFailsACheck) {
  // A Release build compiles DHTLB_ASSERT out, so an origin past the
  // view must fail a check, not read past the arrays.
  support::Rng rng(5);
  sim::World world(small_params(), rng);
  const RingView view = RingView::freeze(world, 0);
  const std::string size = std::to_string(view.size());
  EXPECT_DEATH((void)view.route(Uint160{1}, 7'000'000),
               "DHTLB_CHECK failed.*RingView::route_batch: origin 7000000 "
               "out of range for a view of " +
                   size + " vnodes");
  const std::vector<Uint160> keys(3, Uint160{1});
  const std::vector<std::size_t> origins = {0, view.size(), 1};
  std::vector<RingView::Route> routes(3);
  EXPECT_DEATH(view.route_batch(keys, origins, routes),
               "DHTLB_CHECK failed.*RingView::route_batch: origin " + size +
                   " out of range for a view of " + size + " vnodes");
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
