// Message-fault injection on chord::Network: off-by-default bit-purity
// (no RNG draws when every probability is zero), deterministic streams
// under a fixed seed, and the semantics of each fault kind.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "chord/network.hpp"
#include "hashing/sha1.hpp"
#include "obs/trace.hpp"

namespace dhtlb::chord {
namespace {

using hashing::Sha1;

Network build_ring(std::size_t n) {
  Network net(4);
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = Sha1::hash_u64(i);
  net.bootstrap(ids, 6);
  EXPECT_TRUE(net.ring_consistent());
  return net;
}

MessageStats run_workload(Network& net) {
  net.stats().reset();
  for (std::uint64_t k = 100; k < 120; ++k) {
    net.lookup(net.node_ids().front(), Sha1::hash_u64(k));
  }
  net.stabilize(3);
  return net.stats();
}

TEST(FaultInjection, DefaultsOffAndAnyReflectsConfig) {
  FaultConfig config;
  EXPECT_FALSE(config.any());
  config.delay = 0.1;
  EXPECT_TRUE(config.any());
  Network net(4);
  EXPECT_FALSE(net.faults().any());
}

TEST(FaultInjection, ZeroProbabilitiesAreBitIdenticalToNoInjector) {
  // Seeding the injector but leaving every probability at zero must not
  // change a single message count: zero-probability rolls short-circuit
  // before consuming a draw, so baselines cannot drift.
  Network plain = build_ring(16);
  Network seeded = build_ring(16);
  seeded.set_fault_seed(12345);
  seeded.set_faults(FaultConfig{});  // still all-zero
  const MessageStats a = run_workload(plain);
  const MessageStats b = run_workload(seeded);
  EXPECT_EQ(a.find_successor, b.find_successor);
  EXPECT_EQ(a.get_predecessor, b.get_predecessor);
  EXPECT_EQ(a.get_successor_list, b.get_successor_list);
  EXPECT_EQ(a.notify, b.notify);
  EXPECT_EQ(a.ping, b.ping);
}

TEST(FaultInjection, CertainDuplicationDoublesCountedTrafficOnly) {
  // duplicate = 1.0 hits the p >= 1 shortcut (again no RNG draw), so the
  // run is behaviorally identical to fault-free — every counter-carrying
  // RPC just costs exactly twice.
  Network plain = build_ring(12);
  Network doubled = build_ring(12);
  doubled.set_fault_seed(1);
  FaultConfig config;
  config.duplicate = 1.0;
  doubled.set_faults(config);
  const MessageStats a = run_workload(plain);
  const MessageStats b = run_workload(doubled);
  EXPECT_EQ(2 * a.get_predecessor, b.get_predecessor);
  EXPECT_EQ(2 * a.get_successor_list, b.get_successor_list);
  EXPECT_EQ(2 * a.notify, b.notify);
  EXPECT_EQ(2 * a.ping, b.ping);
  // find_successor is accounted by lookup(), not the wire, and routing
  // is unchanged under pure duplication.
  EXPECT_EQ(a.find_successor, b.find_successor);
}

TEST(FaultInjection, SameSeedReplaysSameStats) {
  auto run = [] {
    Network net = build_ring(14);
    net.set_fault_seed(777);
    FaultConfig config;
    config.drop = 0.2;
    config.delay = 0.1;
    config.duplicate = 0.15;
    net.set_faults(config);
    return run_workload(net).total();
  };
  const std::uint64_t first = run();
  EXPECT_EQ(first, run());
}

TEST(FaultInjection, TotalDropStillTerminates) {
  // A 100% drop rate partitions the overlay completely.  What must
  // survive: lookups fall back to ground truth instead of looping, and
  // maintenance runs to completion without crashing.  (Full healing is
  // NOT expected afterwards — sustained total loss prunes every
  // successor-list entry, and Chord only guarantees recovery while
  // lists retain a live node; see the moderate-fault test below.)
  Network net = build_ring(10);
  net.set_fault_seed(5);
  FaultConfig config;
  config.drop = 1.0;
  net.set_faults(config);
  const LookupResult res =
      net.lookup(net.node_ids().front(), Sha1::hash_u64(4242));
  EXPECT_EQ(res.owner, net.true_owner(Sha1::hash_u64(4242)));
  net.stabilize(3);
  EXPECT_EQ(net.size(), 10u);  // faults lose messages, never nodes
}

TEST(FaultInjection, ModerateFaultsHealAfterClearing) {
  // Survivable exposure: 20% drop/delay/duplicate for 5 rounds leaves
  // live successor-list entries (most pings get through), so once the
  // faults clear, stabilization re-converges the ring.  Deterministic
  // for the pinned seed; seeds that prune a node's whole list can
  // island the overlay, which is faithful Chord behavior, not a bug.
  Network net = build_ring(12);
  net.set_fault_seed(5);
  FaultConfig config;
  config.drop = 0.2;
  config.delay = 0.2;
  config.duplicate = 0.2;
  net.set_faults(config);
  net.stabilize(5);
  net.set_faults(FaultConfig{});
  net.stabilize(30);
  EXPECT_TRUE(net.ring_consistent());
}

TEST(FaultInjection, DelayOnlyFaultsHealAfterClearing) {
  // delay defers a notify instead of losing it: the caller sees the RPC
  // fail, and the predecessor update is queued for delivery at the start
  // of the next maintenance round.  Deferred-but-delivered side effects
  // keep the ring repairable once the faults clear.
  Network net = build_ring(8);
  net.set_fault_seed(3);
  FaultConfig config;
  config.delay = 0.25;
  net.set_faults(config);
  net.stabilize(4);
  net.set_faults(FaultConfig{});
  net.stabilize(30);
  EXPECT_TRUE(net.ring_consistent());
  // Clean rounds enqueue nothing, so the queue always drains.
  EXPECT_TRUE(net.delayed_messages().empty());
}

TEST(FaultInjection, DelayedNotifiesQueueInRoundThenSequenceOrder) {
  // Deferred notifies carry a (round, sequence) stamp: everything still
  // queued after a maintenance round belongs to that round (older
  // entries were delivered at the round's start), and sequences count
  // 0,1,2,... in enqueue order.  That total order is what makes
  // deferred delivery — and the traces built on it — deterministic.
  Network net = build_ring(8);
  net.set_fault_seed(11);
  FaultConfig config;
  config.delay = 0.5;
  net.set_faults(config);
  std::uint64_t prev_round = 0;
  bool saw_deferral = false;
  for (int r = 0; r < 6; ++r) {
    net.maintenance_round();
    const auto& queued = net.delayed_messages();
    if (queued.empty()) continue;
    saw_deferral = true;
    for (std::size_t i = 0; i < queued.size(); ++i) {
      EXPECT_EQ(queued[i].round, queued[0].round);
      EXPECT_EQ(queued[i].seq, static_cast<std::uint64_t>(i));
    }
    EXPECT_GT(queued[0].round, prev_round);
    prev_round = queued[0].round;
  }
  EXPECT_TRUE(saw_deferral) << "seed 11 at delay=0.5 defers notifies";
  // Clean rounds enqueue nothing, so one fault-free round drains the
  // backlog completely.
  net.set_faults(FaultConfig{});
  net.maintenance_round();
  EXPECT_TRUE(net.delayed_messages().empty());
}

TEST(FaultInjection, DeferredNotifiesAreDeliveredNotDiscarded) {
  // A delayed notify must actually land one round late.  The delivery
  // path announces itself on the trace as a "notify_delivered" instant,
  // so: defer at least one notify, then run a clean round and require
  // the delivery event on the wire.
  std::ostringstream trace_out;
  Network net = build_ring(8);
  net.set_fault_seed(11);
  FaultConfig config;
  config.delay = 0.5;
  net.set_faults(config);
  net.maintenance_round();
  ASSERT_FALSE(net.delayed_messages().empty());
  {
    obs::TraceSink trace(trace_out);
    net.set_trace(&trace);
    net.set_faults(FaultConfig{});
    net.maintenance_round();
    net.set_trace(nullptr);
    trace.close();
  }
  EXPECT_TRUE(net.delayed_messages().empty());
  EXPECT_NE(trace_out.str().find("\"name\":\"notify_delivered\""),
            std::string::npos)
      << trace_out.str();
}


TEST(FaultInjection, FaultPathIsPinned) {
  // Pins the exact fault path, not just aggregate counts: every counter,
  // the deferred-notify backlog and a digest of the trace (each RPC, each
  // dup/drop/delay instant, in order).  Dead callees occur, so a change
  // to where a roll sits relative to the liveness check shows here.
  // The constants were recorded before the RPCs shared their fault steps.
  std::ostringstream trace_out;
  Network net = build_ring(48);
  net.set_fault_seed(7);
  net.set_faults(FaultConfig{0.1, 0.1, 0.1});
  net.stats().reset();
  {
    obs::TraceSink trace(trace_out);
    net.set_trace(&trace);
    for (std::uint64_t i : {5u, 17u, 29u, 41u}) net.fail(Sha1::hash_u64(i));
    for (int r = 0; r < 12; ++r) net.maintenance_round();
    const std::vector<NodeId> live = net.node_ids();
    for (std::uint64_t k = 0; k < 40; ++k) {
      net.lookup(live[k % live.size()], Sha1::hash_u64(1000 + k));
    }
    net.set_trace(nullptr);
    trace.close();
  }
  const MessageStats& s = net.stats();
  EXPECT_EQ(s.find_successor, 76u);
  EXPECT_EQ(s.get_predecessor, 574u);
  EXPECT_EQ(s.get_successor_list, 1286u);
  EXPECT_EQ(s.notify, 580u);
  EXPECT_EQ(s.ping, 1369u);
  EXPECT_EQ(net.delayed_messages().size(), 3u);
  EXPECT_EQ(Sha1::to_hex(Sha1::hash(trace_out.str())), "1fdc193e3cea2da8eead9b993859e50550d45965");
}

}  // namespace
}  // namespace dhtlb::chord
