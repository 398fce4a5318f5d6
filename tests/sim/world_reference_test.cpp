// Differential test: sim::World against a brute-force reference model.
//
// The reference holds the exact task keys and recomputes ownership and
// workloads from first principles on every check — no incremental
// caches, no split/merge shortcuts — and keeps each node's vnode list
// and aliveness as plain ordered data.  A long randomized sequence of
// membership operations must keep the two models exactly equal: the
// keys, the owners, each node's slot list resolved to ids (in order)
// and is_alive.  This is the strongest guard on the split/merge/cache
// bookkeeping every experiment depends on.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/world.hpp"
#include "sim/world_reference_model.hpp"
#include "sim/world_testing.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;
using testing::ReferenceModel;
using testing::slot_at_id;

class WorldReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldReferenceTest, RandomMembershipSequenceMatchesReference) {
  const std::uint64_t seed = GetParam();
  support::Rng world_rng(seed);
  Params params;
  params.initial_nodes = 12;
  params.total_tasks = 600;
  World world(params, world_rng);

  // Mirror the exact initial state (vnodes + real keys).
  ReferenceModel ref = ReferenceModel::mirror(world);
  ASSERT_EQ(ref.total_keys(), world.remaining_tasks());

  auto check_agreement = [&](int step) {
    ASSERT_EQ(ref.vnodes().size(), world.vnode_count()) << "step " << step;
    const auto ref_loads = ref.owner_loads();
    for (const auto& [vid, owner] : ref.vnodes()) {
      const ArcView arc = world.arc_covering(vid);
      ASSERT_EQ(arc.id, vid) << "step " << step;
      ASSERT_EQ(arc.owner, owner) << "step " << step;
      // Exact key-set agreement per vnode.
      const auto& world_keys = world.vnode_keys(arc.slot);
      const std::multiset<Uint160> world_set(world_keys.begin(),
                                             world_keys.end());
      ASSERT_EQ(world_set, ref.vnode_keys(vid))
          << "vnode " << vid << " at step " << step;
    }
    for (const NodeIndex a : world.alive_indices()) {
      const auto it = ref_loads.find(a);
      const std::uint64_t expected =
          it == ref_loads.end() ? 0 : it->second;
      ASSERT_EQ(world.workload(a), expected)
          << "owner " << a << " at step " << step;
    }
    ASSERT_EQ(ref.total_keys(), world.remaining_tasks());
    // Each node's slot list is the only record of its vnodes: every
    // slot must be live and resolve to the model's ids, primary first.
    const std::vector<std::uint8_t> live = world.vnode_live_marks();
    for (NodeIndex idx = 0; idx < world.physical_count(); ++idx) {
      ASSERT_EQ(world.is_alive(idx), ref.alive(idx))
          << "node " << idx << " at step " << step;
      std::vector<Uint160> listed;
      for (const Slot slot : world.physical(idx).vnode_slots) {
        ASSERT_TRUE(slot < live.size() && live[slot] != 0)
            << "node " << idx << " lists freed slot " << slot << " at step "
            << step;
        listed.push_back(world.vnode_id(slot));
      }
      ASSERT_EQ(listed, ref.list(idx)) << "node " << idx << " at step "
                                       << step;
    }
  };

  support::Rng op_rng(seed + 1);
  for (int step = 0; step < 100; ++step) {
    const auto alive = world.alive_indices();
    const NodeIndex idx = alive[op_rng.below(alive.size())];
    switch (op_rng.below(6)) {
      case 0: {  // sybil at an explicit fresh ID
        const Uint160 id = op_rng.uniform_u160();
        if (world.create_sybil(idx, id)) ref.add_vnode(id, idx);
        break;
      }
      case 1: {  // retire all sybils
        world.remove_sybils(idx);
        ref.remove_sybils(idx);
        break;
      }
      case 2: {  // departure (all vnodes go)
        if (world.alive_count() <= 1) break;
        if (world.depart(idx)) ref.depart(idx);
        break;
      }
      case 3: {  // join from the waiting pool
        const std::size_t before = world.vnode_count();
        const auto joined = world.join_from_pool(world_rng);
        if (joined && world.vnode_count() == before + 1) {
          ref.add_vnode(world.vnode_id(world.primary_slot(*joined)),
                        *joined);
        }
        break;
      }
      case 4: {  // neighbor move of one of idx's vnodes, either way
        const auto& slots = world.physical(idx).vnode_slots;
        const Slot slot = slots[op_rng.below(slots.size())];
        const World::ArcWalk walk = world.successor_arcs(slot, 1);
        const ArcView arc = walk.start_arc();
        const Uint160 old_id = arc.id;
        std::optional<Uint160> succ;
        for (const ArcView& next : walk) succ = next.id;
        if (!succ) break;
        const Uint160 new_id = op_rng.below(2) == 0
                                   ? support::arc_midpoint(arc.pred, old_id)
                                   : support::arc_midpoint(old_id, *succ);
        if (world.move_vnode(slot, new_id)) ref.move_vnode(old_id, new_id);
        break;
      }
      case 5: {  // a named waiting node joins at a chosen ID
        const auto& waiting = world.waiting_indices();
        if (waiting.empty()) break;
        const NodeIndex joiner = waiting[op_rng.below(waiting.size())];
        const Uint160 id = op_rng.uniform_u160();
        if (world.join_at(joiner, id)) ref.add_vnode(id, joiner);
        break;
      }
    }
    check_agreement(step);
  }
}

// inject_tasks places a whole batch in one sorted sweep, then appends
// it in batch order.  Against the reference's per-key placement, after
// every batch: each vnode holds its previous keys followed by exactly
// the batch keys the reference assigns to it, in batch order, and the
// workloads and both task counters follow.  Batches mix uniform keys,
// a narrow hotspot, vnode ids and their neighbors, and duplicates;
// membership changes between batches move the arcs they land on.
TEST_P(WorldReferenceTest, InjectedBatchesAppendInBatchOrder) {
  const std::uint64_t seed = GetParam();
  support::Rng world_rng(seed);
  Params params;
  params.initial_nodes = 12;
  params.total_tasks = 600;
  World world(params, world_rng);

  ReferenceModel ref = ReferenceModel::mirror(world);

  support::Rng op_rng(seed + 2);
  for (int step = 0; step < 30; ++step) {
    const auto alive = world.alive_indices();
    const NodeIndex idx = alive[op_rng.below(alive.size())];
    if (op_rng.below(3) != 0) {
      const Uint160 id = op_rng.uniform_u160();
      if (world.create_sybil(idx, id)) ref.add_vnode(id, idx);
    } else if (world.alive_count() > 2 && world.depart(idx)) {
      ref.depart(idx);
    }

    std::vector<Uint160> batch;
    const std::uint64_t uniform = op_rng.below(300);
    for (std::uint64_t i = 0; i < uniform; ++i) {
      batch.push_back(op_rng.uniform_u160());
    }
    const Uint160 start = op_rng.uniform_u160();
    for (int i = 0; i < 50; ++i) {
      batch.push_back(op_rng.uniform_in_arc(start, start + Uint160::pow2(90)));
    }
    for (const auto& [vid, owner] : ref.vnodes()) {
      if (op_rng.below(4) == 0) {
        batch.push_back(vid);
        batch.push_back(vid + Uint160{1});
      }
    }
    batch.push_back(batch[op_rng.below(batch.size())]);

    std::map<Uint160, std::vector<Uint160>> expected;
    for (const auto& [vid, owner] : ref.vnodes()) {
      expected[vid] = world.vnode_keys(slot_at_id(world, vid));
    }
    for (const Uint160& key : batch) {
      expected[ref.owner_vnode(key)].push_back(key);
      ref.add_key(key);
    }
    const std::uint64_t total_before = world.total_tasks();
    world.inject_tasks(batch);

    for (const auto& [vid, keys] : expected) {
      ASSERT_EQ(world.vnode_keys(slot_at_id(world, vid)), keys)
          << "vnode " << vid << " at step " << step;
    }
    const auto ref_loads = ref.owner_loads();
    for (const NodeIndex a : world.alive_indices()) {
      const auto it = ref_loads.find(a);
      ASSERT_EQ(world.workload(a), it == ref_loads.end() ? 0 : it->second)
          << "owner " << a << " at step " << step;
    }
    ASSERT_EQ(world.remaining_tasks(), ref.total_keys()) << "step " << step;
    ASSERT_EQ(world.total_tasks(), total_before + batch.size())
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldReferenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

}  // namespace
}  // namespace dhtlb::sim
