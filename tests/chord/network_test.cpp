#include "chord/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace dhtlb::chord {
namespace {

using support::Rng;
using support::Uint160;

/// Builds a ring of n SHA-1-addressed nodes and stabilizes it fully.
Network make_ring(std::size_t n, std::uint64_t seed,
                  std::size_t successor_list = 5) {
  Network net(successor_list);
  Rng rng(seed);
  std::vector<NodeId> ids(n);
  for (NodeId& id : ids) id = hashing::Sha1::hash_u64(rng());
  net.bootstrap(ids, 4);
  return net;
}

TEST(Network, SingleNodeOwnsEverything) {
  Network net;
  const NodeId id{Uint160{1000}};
  net.create(id);
  EXPECT_TRUE(net.ring_consistent());
  const auto res = net.lookup(id, Uint160{5});
  EXPECT_EQ(res.owner, id);
}

TEST(Network, CreateTwiceThrows) {
  Network net;
  net.create(Uint160{1});
  EXPECT_THROW(net.create(Uint160{2}), std::logic_error);
}

TEST(Network, JoinDuplicateIdRejected) {
  Network net;
  net.create(Uint160{1});
  EXPECT_FALSE(net.join(Uint160{1}, Uint160{1}));
}

TEST(Network, TwoNodesStabilizeIntoARing) {
  Network net;
  net.create(Uint160{100});
  net.join(Uint160{200}, Uint160{100});
  net.stabilize(4);
  EXPECT_TRUE(net.ring_consistent());
  EXPECT_EQ(net.node(Uint160{100}).successor(), Uint160{200});
  EXPECT_EQ(net.node(Uint160{200}).successor(), Uint160{100});
}

TEST(Network, RingConvergesForManyNodes) {
  const Network net = make_ring(64, 1);
  EXPECT_EQ(net.size(), 64u);
  EXPECT_TRUE(net.ring_consistent());
}

TEST(Network, LookupsAgreeWithGroundTruth) {
  Network net = make_ring(50, 2);
  Rng rng(99);
  const auto ids = net.node_ids();
  for (int i = 0; i < 500; ++i) {
    const Uint160 key = rng.uniform_u160();
    const NodeId origin = ids[rng.below(ids.size())];
    EXPECT_EQ(net.lookup(origin, key).owner, net.true_owner(key));
  }
}

TEST(Network, LookupOfOwnIdReturnsSelfArcOwner) {
  Network net = make_ring(20, 3);
  for (const auto& id : net.node_ids()) {
    EXPECT_EQ(net.lookup(id, id).owner, id)
        << "a node owns its own identifier";
  }
}

TEST(Network, LookupHopsAreLogarithmic) {
  Network net = make_ring(128, 4);
  Rng rng(5);
  const auto ids = net.node_ids();
  double total_hops = 0;
  constexpr int kProbes = 300;
  for (int i = 0; i < kProbes; ++i) {
    const auto res = net.lookup(ids[rng.below(ids.size())],
                                rng.uniform_u160());
    total_hops += res.hops;
  }
  const double mean_hops = total_hops / kProbes;
  // Chord's bound: O(log2 n) = 7 for n=128; mean is ~ (1/2) log2 n.
  EXPECT_LE(mean_hops, 8.0);
  EXPECT_GE(mean_hops, 1.0) << "routing actually happens";
}

TEST(Network, LookupCountsMessages) {
  Network net = make_ring(32, 6);
  net.stats().reset();
  const auto ids = net.node_ids();
  (void)net.lookup(ids.front(), Uint160{12345});
  EXPECT_GT(net.stats().total(), 0u);
}

TEST(Network, GracefulLeaveKeepsRingConsistent) {
  Network net = make_ring(30, 7);
  Rng rng(8);
  auto ids = net.node_ids();
  for (int i = 0; i < 10; ++i) {
    const NodeId victim = ids[rng.below(ids.size())];
    net.leave(victim);
    std::erase(ids, victim);
    net.stabilize(3);
  }
  EXPECT_EQ(net.size(), 20u);
  EXPECT_TRUE(net.ring_consistent());
}

TEST(Network, AbruptFailureHealsThroughMaintenance) {
  Network net = make_ring(40, 9);
  Rng rng(10);
  auto ids = net.node_ids();
  // Fail 8 nodes without telling anyone.
  for (int i = 0; i < 8; ++i) {
    const NodeId victim = ids[rng.below(ids.size())];
    net.fail(victim);
    std::erase(ids, victim);
  }
  EXPECT_FALSE(net.ring_consistent()) << "dangling pointers right after";
  net.stabilize(6);
  EXPECT_TRUE(net.ring_consistent()) << "maintenance repairs the ring";
  // And lookups are exact again.
  for (int i = 0; i < 100; ++i) {
    const Uint160 key = rng.uniform_u160();
    EXPECT_EQ(net.lookup(ids[rng.below(ids.size())], key).owner,
              net.true_owner(key));
  }
}

TEST(Network, SurvivesFailureBurstWithinSuccessorList) {
  // r=5 successors tolerate up to 4 consecutive failures; test a burst
  // of 4 adjacent nodes failing at once.
  Network net = make_ring(30, 11, /*successor_list=*/5);
  auto ids = net.node_ids();  // sorted by map order (ring order)
  for (int i = 5; i < 9; ++i) net.fail(ids[static_cast<std::size_t>(i)]);
  net.stabilize(8);
  EXPECT_TRUE(net.ring_consistent());
  EXPECT_EQ(net.size(), 26u);
}

TEST(Network, JoinAfterFailuresStillWorks) {
  Network net = make_ring(20, 12);
  auto ids = net.node_ids();
  net.fail(ids[3]);
  net.fail(ids[9]);
  net.stabilize(6);
  Rng rng(13);
  const NodeId fresh = hashing::Sha1::hash_u64(rng());
  EXPECT_TRUE(net.join(fresh, ids[0]));
  net.stabilize(6);
  net.build_all_fingers();
  EXPECT_TRUE(net.ring_consistent());
  EXPECT_EQ(net.lookup(fresh, fresh).owner, fresh);
}

TEST(Network, MaintenanceTrafficIsBounded) {
  Network net = make_ring(50, 14);
  net.stats().reset();
  net.maintenance_round();
  // Each node: 1 ping (check_predecessor) + stabilize (ping successor,
  // get_predecessor, notify, get_successor_list) + fix_finger (one
  // lookup).  Lookups dominate at ~log n messages.  Generous bound:
  EXPECT_LT(net.stats().total(), 50u * 40u);
  EXPECT_GT(net.stats().notify, 0u);
}

TEST(Network, TrueOwnerWrapsAroundZero) {
  Network net;
  net.create(Uint160{1000});
  net.join(Uint160{2000}, Uint160{1000});
  net.stabilize(4);
  // A key above 2000 wraps to the lowest node, 1000.
  EXPECT_EQ(net.true_owner(Uint160{5000}), Uint160{1000});
  EXPECT_EQ(net.true_owner(Uint160{1500}), Uint160{2000});
  EXPECT_EQ(net.true_owner(Uint160{500}), Uint160{1000});
}

TEST(Network, NodeIdsAreSortedRingOrder) {
  const Network net = make_ring(16, 15);
  const auto ids = net.node_ids();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LT(ids[i - 1], ids[i]);
  }
}

}  // namespace
}  // namespace dhtlb::chord
