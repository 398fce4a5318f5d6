// The slot-keyed World queries against a reference read off ring order.
//
// A vnode is addressed by its Slot; arc_of, successor_arcs,
// predecessor_arcs and nth_task_key resolve it through
// FlatRing::cursor_of.  On a seeded, churned world of more than 1500
// vnodes where nodes hold Sybils (some slots recycled), every live slot's
// arc and walks must match the ids of ring_ids() in order, with each
// position's slot, owner and Sybil flag taken from the owners' slot
// lists; every split key must match the slot's keys sorted by clockwise
// distance from the arc start, on the arc that wraps through zero too;
// and a slot freed by remove_sybils must fail cursor_of's check instead
// of naming another vnode.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/world.hpp"
#include "sim/world_testing.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using support::Rng;
using support::Uint160;
using testing::AuditClean;

/// A world churned by departures, joins, Sybil waves, Sybil retirement
/// (freeing slots the next wave recycles) and three keys injected on
/// both sides of zero, so the wrapping arc holds keys across it.
World churned_world() {
  Params p;
  p.initial_nodes = 1200;
  p.total_tasks = 20000;
  Rng rng(2024);
  World world(p, rng);
  Rng op(77);
  const auto random_alive = [&] {
    const auto& alive = world.alive_indices();
    return alive[op.below(alive.size())];
  };
  for (int i = 0; i < 200; ++i) (void)world.depart(random_alive());
  for (int i = 0; i < 150; ++i) (void)world.join_from_pool(op);
  for (int wave = 0; wave < 2; ++wave) {
    for (const NodeIndex idx : std::vector(world.alive_indices())) {
      if (op.below(2) == 0) (void)world.create_sybil(idx, op.uniform_u160());
    }
    for (int i = 0; i < 100; ++i) world.remove_sybils(random_alive());
  }
  const std::array<TaskKey, 3> wrap_keys = {Uint160::max(), Uint160::zero(),
                                            Uint160{1}};
  world.inject_tasks(wrap_keys);
  return world;
}

/// Ring order and, per position, the slot there, its owner and whether
/// it is a Sybil — read off ring_ids() and the owners' slot lists, not
/// off the ring's own walks.
struct RingOrder {
  std::vector<Uint160> ids;
  std::vector<Slot> slots;
  std::vector<NodeIndex> owners;
  std::vector<bool> sybil;

  explicit RingOrder(const World& world) : ids(world.ring_ids()) {
    const std::size_t n = ids.size();
    slots.assign(n, FlatRing::kNoSlot);
    owners.assign(n, 0);
    sybil.assign(n, false);
    for (const NodeIndex idx : world.alive_indices()) {
      const std::vector<Slot>& listed = world.physical(idx).vnode_slots;
      for (std::size_t i = 0; i < listed.size(); ++i) {
        const std::size_t at = position(world.vnode_id(listed[i]));
        slots[at] = listed[i];
        owners[at] = idx;
        sybil[at] = i > 0;
      }
    }
  }

  std::size_t position(const Uint160& id) const {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    EXPECT_TRUE(it != ids.end() && *it == id) << id;
    return static_cast<std::size_t>(it - ids.begin());
  }

  /// Expects `arc` to be the arc at ring position `at`.  Compares
  /// first and reports only a mismatch: the walks visit millions of arcs.
  void expect_arc_at(const World& world, const ArcView& arc, std::size_t at,
                     const char* what) const {
    const std::size_t n = ids.size();
    const Uint160& pred = ids[(at + n - 1) % n];
    const std::size_t tasks = world.vnode_keys(slots[at]).size();
    if (arc.id == ids[at] && arc.pred == pred && arc.slot == slots[at] &&
        arc.owner == owners[at] && arc.is_sybil == sybil[at] &&
        arc.task_count == tasks) {
      return;
    }
    ADD_FAILURE() << what << " at ring position " << at << ": id " << arc.id
                  << " (want " << ids[at] << "), pred " << arc.pred
                  << " (want " << pred << "), slot " << arc.slot << " (want "
                  << slots[at] << "), owner " << arc.owner << " (want "
                  << owners[at] << "), sybil " << arc.is_sybil << " (want "
                  << sybil[at] << "), tasks " << arc.task_count << " (want "
                  << tasks << ")";
  }
};

TEST(WorldSlotApi, ChurnedWorldHasSybilsAndIsClean) {
  const World world = churned_world();
  EXPECT_GE(world.vnode_count(), 1500u);
  std::size_t sybils = 0;
  for (const NodeIndex idx : world.alive_indices()) {
    sybils += world.sybil_count(idx);
  }
  EXPECT_GT(sybils, 300u);
  EXPECT_TRUE(AuditClean(world));
}

TEST(WorldSlotApi, ArcsAndWalksMatchRingOrder) {
  const World world = churned_world();
  const RingOrder order(world);
  const std::size_t n = order.ids.size();
  ASSERT_GE(n, 1500u);
  for (std::size_t at = 0; at < n; ++at) {
    const Slot slot = order.slots[at];
    ASSERT_NE(slot, FlatRing::kNoSlot) << "position " << at << " unlisted";
    order.expect_arc_at(world, world.arc_of(slot), at, "arc_of");
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, n - 1, n, n + 3}) {
      // A walk takes min(k, n - 1) steps: it stops on wrapping back.
      const std::size_t steps = std::min(k, n - 1);
      std::size_t walked = 0;
      for (const ArcView& arc : world.successor_arcs(slot, k)) {
        ++walked;
        order.expect_arc_at(world, arc, (at + walked) % n, "successor");
      }
      ASSERT_EQ(walked, steps) << "successors of position " << at << ", k "
                               << k;
      walked = 0;
      for (const ArcView& arc : world.predecessor_arcs(slot, k)) {
        ++walked;
        order.expect_arc_at(world, arc, (at + n - walked) % n, "predecessor");
      }
      ASSERT_EQ(walked, steps) << "predecessors of position " << at << ", k "
                               << k;
    }
    ASSERT_FALSE(::testing::Test::HasFailure()) << "position " << at;
  }
}

TEST(WorldSlotApi, NthTaskKeyFollowsClockwiseDistanceFromArcStart) {
  const World world = churned_world();
  std::size_t wrapping_keys = 0;
  world.for_each_arc([&](const ArcView& listed) {
    const ArcView arc = world.arc_of(listed.slot);
    std::vector<Uint160> offsets;
    for (const TaskKey& key : world.vnode_keys(arc.slot)) {
      offsets.push_back(support::clockwise_distance(arc.pred, key));
    }
    std::sort(offsets.begin(), offsets.end());
    if (!(arc.pred < arc.id)) wrapping_keys = offsets.size();
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      const auto key = world.nth_task_key(arc, i);
      ASSERT_TRUE(key.has_value()) << arc.id << " key " << i;
      ASSERT_EQ(*key, arc.pred + offsets[i]) << arc.id << " key " << i;
    }
    ASSERT_FALSE(world.nth_task_key(arc, offsets.size()).has_value());
  });
  // The wrapping arc holds the injected keys on both sides of zero.
  EXPECT_GE(wrapping_keys, 3u);
}

TEST(WorldSlotApiDeathTest, WalkFromAFreedSlotFailsTheCursorCheck) {
  World world = churned_world();
  NodeIndex holder = 0;
  for (const NodeIndex idx : world.alive_indices()) {
    if (world.sybil_count(idx) > 0) {
      holder = idx;
      break;
    }
  }
  ASSERT_GT(world.sybil_count(holder), 0u);
  const Slot freed = world.physical(holder).vnode_slots.back();
  world.remove_sybils(holder);
  // Freed and not yet recycled: no insert has run since.
  const std::vector<std::uint8_t> live = world.vnode_live_marks();
  ASSERT_TRUE(freed < live.size() && live[freed] == 0);
  EXPECT_DEATH((void)world.successor_arcs(freed, 1),
               "DHTLB_CHECK failed.*cursor_of: slot [0-9]+ holds no vnode");
  EXPECT_DEATH((void)world.predecessor_arcs(freed, 1),
               "DHTLB_CHECK failed.*cursor_of: slot [0-9]+ holds no vnode");
  EXPECT_DEATH((void)world.arc_of(freed),
               "DHTLB_CHECK failed.*cursor_of: slot [0-9]+ holds no vnode");
}

}  // namespace
}  // namespace dhtlb::sim
