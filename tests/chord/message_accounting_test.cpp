// Contract tests for the message ledger: each protocol operation must
// charge the right counter.  The ledger is what turns the paper's
// qualitative traffic claims into numbers (bench/tableM), so its
// accounting has to be precise.
#include <gtest/gtest.h>

#include <vector>

#include "chord/network.hpp"
#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace dhtlb::chord {
namespace {

using support::Rng;
using support::Uint160;

Network settled_ring(std::size_t n, std::uint64_t seed) {
  Network net(5);
  Rng rng(seed);
  std::vector<NodeId> ids(n);
  for (NodeId& id : ids) id = hashing::Sha1::hash_u64(rng());
  net.bootstrap(ids, 4);
  net.stats().reset();
  return net;
}

TEST(MessageAccounting, FreshLedgerIsZero) {
  const MessageStats stats;
  EXPECT_EQ(stats.total(), 0u);
}

TEST(MessageAccounting, LookupChargesRoutingSteps) {
  Network net = settled_ring(32, 1);
  Rng rng(2);
  const auto ids = net.node_ids();
  const auto res = net.lookup(ids[0], rng.uniform_u160());
  EXPECT_EQ(net.stats().find_successor,
            static_cast<std::uint64_t>(res.hops))
      << "one find_successor message per routing hop";
  EXPECT_EQ(net.stats().notify, 0u) << "lookups never notify";
}

TEST(MessageAccounting, MaintenanceChargesEveryCategory) {
  Network net = settled_ring(16, 3);
  net.maintenance_round();
  const MessageStats& s = net.stats();
  EXPECT_GT(s.ping, 0u) << "check_predecessor pings";
  EXPECT_GT(s.get_predecessor, 0u) << "stabilize probes";
  EXPECT_GT(s.notify, 0u) << "stabilize notifies";
  EXPECT_GT(s.get_successor_list, 0u) << "list reconciliation";
  EXPECT_EQ(s.total(), s.find_successor + s.get_predecessor +
                           s.get_successor_list + s.notify + s.ping);
}

TEST(MessageAccounting, MaintenanceCostScalesLinearlyInRingSize) {
  Network small = settled_ring(16, 4);
  Network large = settled_ring(64, 5);
  small.maintenance_round();
  large.maintenance_round();
  const double per_node_small =
      static_cast<double>(small.stats().total()) / 16.0;
  const double per_node_large =
      static_cast<double>(large.stats().total()) / 64.0;
  // Per-node upkeep is dominated by one fix_fingers lookup: O(log n).
  // Within a 4x size change it must stay within a small constant band.
  EXPECT_LT(per_node_large, per_node_small * 3.0);
  EXPECT_GT(per_node_large, per_node_small * 0.5);
}

TEST(MessageAccounting, FailuresMakeSubsequentRoundsPayPings) {
  Network net = settled_ring(24, 6);
  const auto ids = net.node_ids();
  net.fail(ids[5]);
  net.fail(ids[11]);
  net.stats().reset();
  net.maintenance_round();
  // Discovering the dead peers costs extra pings (timeouts) over a
  // healthy round.
  Network healthy = settled_ring(22, 7);
  healthy.maintenance_round();
  EXPECT_GT(net.stats().ping, healthy.stats().ping);
}

TEST(MessageAccounting, ResetClearsAllCounters) {
  Network net = settled_ring(8, 8);
  net.maintenance_round();
  ASSERT_GT(net.stats().total(), 0u);
  net.stats().reset();
  EXPECT_EQ(net.stats().total(), 0u);
}

}  // namespace
}  // namespace dhtlb::chord
