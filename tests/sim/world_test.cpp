#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "sim/world_reference_model.hpp"
#include "sim/world_testing.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using support::Rng;
using support::Uint160;
using testing::AuditClean;

Params small_params(std::size_t nodes = 50, std::uint64_t tasks = 5000) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = tasks;
  return p;
}

TEST(World, InitialPopulationShape) {
  Rng rng(1);
  const World w(small_params(), rng);
  EXPECT_EQ(w.alive_count(), 50u);
  EXPECT_EQ(w.waiting_count(), 50u) << "waiting pool equals network size";
  EXPECT_EQ(w.vnode_count(), 50u);
  EXPECT_EQ(w.remaining_tasks(), 5000u);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, AllTasksAssignedToSomeNode) {
  Rng rng(2);
  const World w(small_params(), rng);
  const auto loads = w.alive_workloads();
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}),
            5000u);
}

TEST(World, InitialWorkloadIsSkewed) {
  // The premise of the paper: SHA-1 placement leaves the network
  // unbalanced — median below mean, max several times the mean.
  Rng rng(3);
  const World w(small_params(200, 20'000), rng);
  const auto loads = w.alive_workloads();
  const std::uint64_t max_load = *std::max_element(loads.begin(), loads.end());
  EXPECT_GT(max_load, 200u) << "max well above the mean of 100";
}

TEST(World, HomogeneousStrengthIsOne) {
  Rng rng(4);
  const World w(small_params(), rng);
  for (const NodeIndex idx : w.alive_indices()) {
    EXPECT_EQ(w.physical(idx).strength, 1u);
    EXPECT_EQ(w.work_per_tick(idx), 1u);
    EXPECT_EQ(w.sybil_cap(idx), 5u) << "hom cap = maxSybils";
  }
}

TEST(World, HeterogeneousStrengthInRange) {
  Params p = small_params(300, 1000);
  p.heterogeneous = true;
  p.max_sybils = 5;
  Rng rng(5);
  const World w(p, rng);
  bool saw_low = false, saw_high = false;
  for (const NodeIndex idx : w.alive_indices()) {
    const unsigned s = w.physical(idx).strength;
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 5u);
    EXPECT_EQ(w.sybil_cap(idx), s) << "het cap = strength";
    saw_low |= s == 1;
    saw_high |= s == 5;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(World, WorkMeasureStrengthChangesWorkPerTick) {
  Params p = small_params(100, 1000);
  p.heterogeneous = true;
  p.work_measure = WorkMeasure::kStrengthPerTick;
  Rng rng(6);
  const World w(p, rng);
  for (const NodeIndex idx : w.alive_indices()) {
    EXPECT_EQ(w.work_per_tick(idx), w.physical(idx).strength);
  }
  // initial_capacity = Σ strengths > N for het networks (a.s.).
  EXPECT_GT(w.initial_capacity(), 100u);
}

TEST(World, ConsumeRespectsBudgetAndWorkload) {
  Rng rng(7);
  World w(small_params(10, 1000), rng);
  const NodeIndex idx = w.alive_indices().front();
  const std::uint64_t before = w.workload(idx);
  ASSERT_GT(before, 0u);
  EXPECT_EQ(testing::consume(w, idx, 1, rng), 1u);
  EXPECT_EQ(w.workload(idx), before - 1);
  EXPECT_EQ(w.remaining_tasks(), 999u);
  // Budget larger than workload consumes exactly the workload.
  const std::uint64_t rest = w.workload(idx);
  EXPECT_EQ(testing::consume(w, idx, rest + 100, rng), rest);
  EXPECT_EQ(w.workload(idx), 0u);
  EXPECT_EQ(testing::consume(w, idx, 5, rng), 0u)
      << "idle node consumes nothing";
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, CreateSybilTransfersExactArcKeys) {
  Rng rng(8);
  World w(small_params(5, 2000), rng);
  const NodeIndex beneficiary = w.alive_indices()[0];
  // Split some victim's arc at its midpoint; the beneficiary must gain
  // exactly what the victim loses.
  const NodeIndex victim = w.alive_indices()[1];
  const ArcView arc = w.arc_of(w.primary_slot(victim));
  const Uint160 mid = support::arc_midpoint(arc.pred, arc.id);
  const std::uint64_t victim_before = w.workload(victim);
  const std::uint64_t bene_before = w.workload(beneficiary);

  const auto acquired = w.create_sybil(beneficiary, mid);
  ASSERT_TRUE(acquired.has_value());
  EXPECT_EQ(w.workload(victim), victim_before - *acquired);
  EXPECT_EQ(w.workload(beneficiary), bene_before + *acquired);
  EXPECT_EQ(w.sybil_count(beneficiary), 1u);
  EXPECT_EQ(w.vnode_count(), 6u);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, CreateSybilOnTakenIdFails) {
  Rng rng(9);
  World w(small_params(5, 100), rng);
  const NodeIndex idx = w.alive_indices()[0];
  const Uint160 existing = w.vnode_id(w.primary_slot(w.alive_indices()[1]));
  EXPECT_FALSE(w.create_sybil(idx, existing).has_value());
  EXPECT_EQ(w.sybil_count(idx), 0u);
}

TEST(World, CreateSybilAtAnExistingIdChangesNothing) {
  // The collision probe's cursor is also the insert position, so a
  // refused Sybil must leave before touching the ring: same ids, same
  // keys in every store, same workloads and counters.  Tried at a
  // primary, at a Sybil and at the largest id (whose insert position is
  // the end cursor).
  Rng rng(19);
  World w(small_params(8, 600), rng);
  const NodeIndex owner = w.alive_indices()[2];
  const ArcView arc = w.arc_of(w.primary_slot(w.alive_indices()[5]));
  ASSERT_TRUE(
      w.create_sybil(owner, support::arc_midpoint(arc.pred, arc.id)));
  const std::vector<Uint160> ids = w.ring_ids();
  const auto snapshot = [&w, owner] {
    std::vector<std::vector<TaskKey>> keys;
    w.for_each_arc([&](const ArcView& vnode) {
      keys.push_back(w.vnode_keys(vnode.slot));
    });
    std::vector<std::uint64_t> loads;
    for (NodeIndex idx = 0; idx < w.physical_count(); ++idx) {
      loads.push_back(w.physical(idx).workload);
    }
    return std::make_tuple(w.ring_ids(), keys, loads, w.remaining_tasks(),
                           w.total_tasks(), w.sybil_count(owner));
  };
  const auto before = snapshot();
  for (const Uint160& taken :
       {w.vnode_id(w.primary_slot(w.alive_indices()[1])),
        w.vnode_id(w.physical(owner).vnode_slots.back()), ids.back()}) {
    for (const NodeIndex who : {owner, w.alive_indices()[0]}) {
      EXPECT_FALSE(w.create_sybil(who, taken).has_value()) << taken;
      EXPECT_EQ(snapshot(), before) << taken;
    }
  }
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, CreateSybilOnTheWrappingArc) {
  // The arc (largest id, smallest id] wraps through zero.  A Sybil past
  // the largest id takes the end cursor as its insert position and must
  // land last in the ring; one below the smallest id lands first.  Each
  // takes exactly the wrapping arc's keys on its side of the new id.
  Rng rng(23);
  World w(small_params(6, 3000), rng);
  const NodeIndex owner = w.alive_indices()[3];
  const std::vector<Uint160> before = w.ring_ids();
  const Uint160 past_top = before.back() + (Uint160::max() - before.back()).shr(1);
  const Uint160 below_bottom = before.front().shr(1);
  for (const Uint160& id : {past_top, below_bottom}) {
    const ArcView wrap = w.arc_covering(id);
    std::uint64_t expected = 0;
    for (const TaskKey& key : w.vnode_keys(wrap.slot)) {
      if (support::in_half_open_arc(key, wrap.pred, id)) ++expected;
    }
    ASSERT_GT(expected, 0u) << id;
    const auto acquired = w.create_sybil(owner, id);
    ASSERT_TRUE(acquired.has_value()) << id;
    EXPECT_EQ(*acquired, expected) << id;
    EXPECT_EQ(w.arc_of(w.physical(owner).vnode_slots.back()).id, id);
    EXPECT_EQ(w.arc_covering(id).owner, owner);
    EXPECT_TRUE(AuditClean(w));
  }
  const std::vector<Uint160> after = w.ring_ids();
  EXPECT_EQ(after.back(), past_top);
  EXPECT_EQ(after.front(), below_bottom);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
}

TEST(World, RemoveSybilsReturnsTasksToRing) {
  Rng rng(10);
  World w(small_params(5, 2000), rng);
  const std::uint64_t total_before = w.remaining_tasks();
  const NodeIndex idx = w.alive_indices()[0];
  // Create two Sybils at arbitrary fresh positions.
  (void)w.create_sybil(idx, Uint160{123456789});
  (void)w.create_sybil(idx, support::Uint160::pow2(100));
  EXPECT_EQ(w.sybil_count(idx), 2u);
  w.remove_sybils(idx);
  EXPECT_EQ(w.sybil_count(idx), 0u);
  EXPECT_EQ(w.remaining_tasks(), total_before) << "no tasks lost";
  EXPECT_EQ(w.vnode_count(), 5u);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, DepartMovesTasksToSuccessorAndNodeToPool) {
  Rng rng(11);
  World w(small_params(10, 1000), rng);
  const std::uint64_t total = w.remaining_tasks();
  const NodeIndex idx = w.alive_indices()[3];
  EXPECT_TRUE(w.depart(idx));
  EXPECT_FALSE(w.is_alive(idx));
  EXPECT_EQ(w.alive_count(), 9u);
  EXPECT_EQ(w.waiting_count(), 11u);
  EXPECT_EQ(w.remaining_tasks(), total);
  EXPECT_EQ(w.workload(idx), 0u);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, LastNodeCannotDepart) {
  Rng rng(12);
  World w(small_params(1, 100), rng);
  EXPECT_FALSE(w.depart(w.alive_indices()[0]));
  EXPECT_EQ(w.alive_count(), 1u);
}

TEST(World, DepartWithSybilsDropsAllVnodes) {
  Rng rng(13);
  World w(small_params(10, 1000), rng);
  const NodeIndex idx = w.alive_indices()[0];
  (void)w.create_sybil(idx, Uint160{42});
  (void)w.create_sybil(idx, Uint160::pow2(90));
  const std::size_t vnodes_before = w.vnode_count();
  EXPECT_TRUE(w.depart(idx));
  EXPECT_EQ(w.vnode_count(), vnodes_before - 3);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, JoinFromPoolAcquiresArcWork) {
  Rng rng(14);
  World w(small_params(20, 10'000), rng);
  const std::uint64_t total = w.remaining_tasks();
  const auto joined = w.join_from_pool(rng);
  ASSERT_TRUE(joined.has_value());
  EXPECT_TRUE(w.is_alive(*joined));
  EXPECT_EQ(w.alive_count(), 21u);
  EXPECT_EQ(w.waiting_count(), 19u);
  EXPECT_EQ(w.remaining_tasks(), total);
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, JoinFromEmptyPoolFails) {
  Rng rng(15);
  World w(small_params(3, 100), rng);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(w.join_from_pool(rng).has_value());
  EXPECT_FALSE(w.join_from_pool(rng).has_value());
}

TEST(World, JoinAtAdmitsTheNamedNodeWithExactlyItsArcKeys) {
  Rng rng(17);
  World w(small_params(20, 5000), rng);
  testing::ReferenceModel ref = testing::ReferenceModel::mirror(w);
  // Not the pool's next joiner: join_at admits the node it is given.
  const NodeIndex joiner = w.waiting_indices().front();
  ASSERT_NE(joiner, w.waiting_indices().back());
  const ArcView arc = w.arc_of(w.primary_slot(w.alive_indices()[4]));
  const Uint160 id = support::arc_midpoint(arc.pred, arc.id);

  const auto acquired = w.join_at(joiner, id);
  ASSERT_TRUE(acquired.has_value());
  ref.add_vnode(id, joiner);
  EXPECT_TRUE(w.is_alive(joiner));
  EXPECT_EQ(w.vnode_id(w.primary_slot(joiner)), id);
  EXPECT_EQ(w.alive_count(), 21u);
  EXPECT_EQ(w.waiting_count(), 19u);
  const std::multiset<Uint160> expected = ref.vnode_keys(id);
  const auto& keys = w.vnode_keys(w.primary_slot(joiner));
  EXPECT_EQ(std::multiset<Uint160>(keys.begin(), keys.end()), expected);
  EXPECT_EQ(*acquired, expected.size());
  EXPECT_GT(*acquired, 0u) << "half an occupied arc holds keys";
  EXPECT_EQ(w.workload(joiner), *acquired);
  for (const auto& [vnode, owner] : ref.vnodes()) {
    const auto& held = w.vnode_keys(testing::slot_at_id(w, vnode));
    EXPECT_EQ(std::multiset<Uint160>(held.begin(), held.end()),
              ref.vnode_keys(vnode))
        << "vnode " << vnode;
  }
  EXPECT_TRUE(w.alive_index_consistent());
  EXPECT_TRUE(AuditClean(w));
}

TEST(World, JoinAtATakenIdLeavesTheNodeWaiting) {
  Rng rng(18);
  World w(small_params(10, 1000), rng);
  const NodeIndex joiner = w.waiting_indices()[2];
  const Uint160 taken = w.vnode_id(w.primary_slot(w.alive_indices()[3]));
  EXPECT_FALSE(w.join_at(joiner, taken).has_value());
  EXPECT_FALSE(w.is_alive(joiner));
  EXPECT_EQ(w.waiting_count(), 10u);
  EXPECT_NE(std::find(w.waiting_indices().begin(), w.waiting_indices().end(),
                      joiner),
            w.waiting_indices().end());
  EXPECT_EQ(w.vnode_count(), 10u);
  EXPECT_TRUE(w.alive_index_consistent());
  EXPECT_TRUE(AuditClean(w));
}

TEST(WorldDeathTest, JoinAtOnAnAliveNodeFailsACheck) {
  Rng rng(19);
  World w(small_params(10, 1000), rng);
  const NodeIndex alive = w.alive_indices()[0];
  EXPECT_DEATH((void)w.join_at(alive, Uint160{7}),
               "DHTLB_CHECK failed.*join_at: node [0-9]+ is not waiting");
}

TEST(World, SuccessorsOfWalkClockwise) {
  Rng rng(16);
  World w(small_params(10, 100), rng);
  const Slot start = w.primary_slot(w.alive_indices()[0]);
  // Each successor's arc starts where the previous vnode ends.
  Uint160 prev = w.vnode_id(start);
  std::size_t walked = 0;
  for (const ArcView& arc : w.successor_arcs(start, 4)) {
    EXPECT_EQ(arc.pred, prev);
    EXPECT_EQ(w.arc_of(arc.slot).pred, prev);
    prev = arc.id;
    ++walked;
  }
  EXPECT_EQ(walked, 4u);
}

TEST(World, SuccessorsStopAtFullLoop) {
  Rng rng(17);
  World w(small_params(3, 10), rng);
  const Slot start = w.primary_slot(w.alive_indices()[0]);
  std::size_t walked = 0;
  for (const ArcView& arc : w.successor_arcs(start, 10)) {
    EXPECT_NE(arc.slot, start);
    ++walked;
  }
  EXPECT_EQ(walked, 2u) << "only 2 other vnodes exist";
}

TEST(World, PredecessorsOfWalkCounterClockwise) {
  Rng rng(18);
  World w(small_params(10, 100), rng);
  const Slot start = w.primary_slot(w.alive_indices()[0]);
  // Each predecessor is the previous vnode's arc start.
  Slot next = start;
  std::size_t walked = 0;
  for (const ArcView& arc : w.predecessor_arcs(start, 3)) {
    EXPECT_EQ(w.arc_of(next).pred, arc.id);
    next = arc.slot;
    ++walked;
  }
  EXPECT_EQ(walked, 3u);
}

TEST(World, ArcWalkYieldsFullArcViews) {
  // Each walked element is a complete ArcView, identical to arc_of.
  Rng rng(43);
  World w(small_params(8, 200), rng);
  const Slot start = w.primary_slot(w.alive_indices()[0]);
  for (const ArcView& arc : w.successor_arcs(start, 5)) {
    const ArcView direct = w.arc_of(arc.slot);
    EXPECT_EQ(arc.id, direct.id);
    EXPECT_EQ(arc.pred, direct.pred);
    EXPECT_EQ(arc.owner, direct.owner);
    EXPECT_EQ(arc.is_sybil, direct.is_sybil);
    EXPECT_EQ(arc.task_count, direct.task_count);
  }
}

TEST(World, ArcViewReportsOwnerAndCount) {
  Rng rng(19);
  World w(small_params(5, 500), rng);
  for (const NodeIndex idx : w.alive_indices()) {
    const ArcView arc = w.arc_of(w.primary_slot(idx));
    EXPECT_EQ(arc.slot, w.primary_slot(idx));
    EXPECT_EQ(arc.owner, idx);
    EXPECT_FALSE(arc.is_sybil);
    EXPECT_EQ(arc.task_count, w.workload(idx))
        << "single-vnode owner: arc count == workload";
  }
}

TEST(World, RandomOperationSequencePreservesInvariants) {
  // Fuzz-style property test: any mix of sybil/churn/consume operations
  // keeps caches, ownership arcs and task conservation intact.
  Rng rng(20);
  Params p = small_params(30, 3000);
  World w(p, rng);
  Rng op_rng(21);
  std::uint64_t consumed_total = 0;
  for (int step = 0; step < 400; ++step) {
    const auto alive = w.alive_indices();
    const NodeIndex idx = alive[op_rng.below(alive.size())];
    switch (op_rng.below(5)) {
      case 0:
        if (const auto got = w.create_sybil(idx, op_rng.uniform_u160())) {
          (void)*got;
        }
        break;
      case 1:
        w.remove_sybils(idx);
        break;
      case 2:
        if (w.alive_count() > 1) (void)w.depart(idx);
        break;
      case 3:
        (void)w.join_from_pool(rng);
        break;
      case 4:
        consumed_total += testing::consume(w, idx, 1 + op_rng.below(5), rng);
        break;
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(AuditClean(w)) << "step " << step;
    }
  }
  EXPECT_TRUE(AuditClean(w));
  EXPECT_EQ(w.remaining_tasks() + consumed_total, 3000u)
      << "tasks are conserved: consumed + remaining == total";
}

}  // namespace
}  // namespace dhtlb::sim
