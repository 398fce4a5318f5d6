// Test-only backdoor that seeds deliberate corruptions into a World,
// bypassing the public API (which maintains the invariants by
// construction).  Each corruption is aimed at exactly one auditor
// check; audit_test.cpp asserts the InvariantAuditor pins it.
//
// Declared a friend of World (see world.hpp); lives under tests/ so the
// shipped library contains no mutation backdoor.
#pragma once

#include <algorithm>
#include <utility>

#include "hashing/sha1.hpp"
#include "sim/world.hpp"

namespace dhtlb::sim::testing {

struct WorldCorruptor {
  /// Moves one task key from its owning vnode into a different vnode's
  /// store (workload caches kept consistent), leaving the key outside
  /// the holder's arc.  Target check: key-partition.
  /// Returns false when the world has no movable key (needs >= 2 vnodes
  /// and at least one stored task).
  static bool orphan_key(World& world) {
    if (world.ring_.size() < 2) return false;
    FlatRing& ring = world.ring_;
    FlatRing::Cursor src = ring.first();
    std::size_t scanned = 0;
    while (scanned < ring.size() && ring.tasks(ring.slot_at(src)).empty()) {
      src = ring.next(src);
      ++scanned;
    }
    if (scanned == ring.size()) return false;
    const FlatRing::Cursor dst = ring.next(src);
    const Slot src_slot = ring.slot_at(src);
    const Slot dst_slot = ring.slot_at(dst);
    support::Rng scratch(1);
    const TaskKey key = ring.tasks(src_slot).consume_random(scratch);
    ring.tasks(dst_slot).add(key);
    --world.physicals_[ring.owner(src_slot)].workload;
    ++world.physicals_[ring.owner(dst_slot)].workload;
    return true;
  }

  /// Stores one extra task key on the second vnode in ring order, whose
  /// arc (first, second] does not wrap: the arc's own predecessor id
  /// (the excluded end) or, with `past_id`, its id + 1.  Either lies
  /// just outside the arc and shares its top 64 bits with an arc end.
  /// Workload and task counters are raised to match.  Target check:
  /// key-partition.
  static bool plant_boundary_key(World& world, bool past_id) {
    if (world.ring_.size() < 2) return false;
    FlatRing& ring = world.ring_;
    const FlatRing::Cursor first = ring.first();
    const FlatRing::Cursor second = ring.next(first);
    TaskKey key = ring.id_at(first);
    if (past_id) {
      key = ring.id_at(second);
      key += Uint160{1};
    }
    const Slot slot = ring.slot_at(second);
    ring.tasks(slot).add(key);
    ++world.physicals_[ring.owner(slot)].workload;
    ++world.remaining_;
    ++world.total_tasks_;
    return true;
  }

  /// Appends a vnode slot already owned by one physical node to another
  /// physical node's vnode list — two nodes claiming the same arc.
  /// Target check: sybil-ownership.
  static bool duplicate_arc(World& world) {
    if (world.alive_.size() < 2) return false;
    const NodeIndex a = world.alive_[0];
    const NodeIndex b = world.alive_[1];
    world.physicals_[b].vnode_slots.push_back(
        world.physicals_[a].vnode_slots.front());
    return true;
  }

  /// Points a Sybil vnode's owner field at a waiting (dead) node while
  /// the creator still lists it.  Target check: sybil-ownership.
  /// Creates the Sybil through the public API first, so the world is
  /// valid up to the final owner overwrite.
  static bool dangle_sybil_owner(World& world, support::Rng& rng);

  /// Creates a Sybil through the public API, then removes its vnode
  /// from the ring (keys merged into the successor, workload caches
  /// kept consistent) while its owner still lists the freed slot.
  /// Target check: sybil-ownership.
  static bool list_freed_slot(World& world, support::Rng& rng) {
    if (world.alive_.empty()) return false;
    const NodeIndex creator = world.alive_[0];
    Uint160 sybil_id;
    do {
      sybil_id = hashing::Sha1::hash_u64(rng());
    } while (!world.create_sybil(creator, sybil_id));
    world.remove_vnode(world.physicals_[creator].vnode_slots.back());
    return true;
  }

  /// Inflates the remaining-task counter past what the ring stores.
  /// Target check: conservation.
  static void inflate_remaining(World& world) { ++world.remaining_; }

  /// Skews one alive node's cached workload away from its stores.
  /// Target check: workload-cache.
  static bool corrupt_workload_cache(World& world) {
    if (world.alive_.empty()) return false;
    world.physicals_[world.alive_[0]].workload += 3;
    return true;
  }

  /// Lists an alive node in the waiting pool as well.  Target check:
  /// membership.
  static bool break_membership(World& world) {
    if (world.alive_.empty()) return false;
    world.waiting_.push_back(world.alive_[0]);
    return true;
  }

  /// Desynchronizes the flat ring's slot arena from its sorted index
  /// (see FlatRingCorruptor).  Target check: index-integrity.
  static bool desync_ring_index(World& world);

  /// Leaves the flat ring's last block summary id stale (see
  /// FlatRingCorruptor).  Target check: index-integrity.
  static bool stale_ring_summary(World& world);

  /// Swaps two adjacent index entries of the flat ring (see
  /// FlatRingCorruptor).  Target check: ring-order.
  static bool misorder_ring_index(World& world);
};

/// Backdoor into FlatRing's private halves (friend of FlatRing), for
/// corruptions invisible to every public observer: the index keeps
/// answering queries by its own ids, so only the index-integrity
/// cross-reference audit can notice the arena disagrees.
struct FlatRingCorruptor {
  static bool desync_arena_id(FlatRing& ring) {
    if (ring.empty()) return false;
    const Slot slot = ring.slot_at(ring.first());
    ring.arena_.id(slot) += Uint160{1};
    return true;
  }

  /// Raises the last block's summary id one past its real largest id,
  /// as if an erase of that block's top entry skipped the summary
  /// update.  Every vnode is still found through the stale bound, so
  /// only the deep summary check can notice.
  static bool stale_block_summary(FlatRing& ring) {
    if (ring.empty()) return false;
    ring.block_max_.back() += Uint160{1};
    return true;
  }

  /// Swaps two adjacent (id, slot) entries in the middle of the first
  /// block, so the index is out of ascending order at one point while
  /// every entry still maps to its own slot.  The first entry stays in
  /// place, so a search for the smallest id still finds it.
  static bool swap_adjacent_entries(FlatRing& ring) {
    if (ring.empty() || ring.blocks_.front().size() < 3) return false;
    auto& block = ring.blocks_.front();
    const std::size_t pos = block.size() / 2;
    std::swap(block[pos - 1], block[pos]);
    return true;
  }

  /// Rewrites one slot's owner in place (FlatRing has no public owner
  /// setter: a vnode keeps the owner it was inserted with).
  static void overwrite_owner(FlatRing& ring, Slot slot, NodeIndex owner) {
    ring.arena_.owner(slot) = owner;
  }
};

inline bool WorldCorruptor::dangle_sybil_owner(World& world,
                                               support::Rng& rng) {
  if (world.alive_.empty() || world.waiting_.empty()) return false;
  const NodeIndex creator = world.alive_[0];
  std::optional<std::uint64_t> acquired;
  while (!acquired) {
    acquired = world.create_sybil(creator, hashing::Sha1::hash_u64(rng()));
  }
  FlatRing& ring = world.ring_;
  const Slot slot = world.physicals_[creator].vnode_slots.back();
  const NodeIndex dead = world.waiting_.front();
  world.physicals_[creator].workload -= ring.tasks(slot).size();
  world.physicals_[dead].workload += ring.tasks(slot).size();
  FlatRingCorruptor::overwrite_owner(ring, slot, dead);
  return true;
}

inline bool WorldCorruptor::desync_ring_index(World& world) {
  return FlatRingCorruptor::desync_arena_id(world.ring_);
}

inline bool WorldCorruptor::stale_ring_summary(World& world) {
  return FlatRingCorruptor::stale_block_summary(world.ring_);
}

inline bool WorldCorruptor::misorder_ring_index(World& world) {
  return FlatRingCorruptor::swap_adjacent_entries(world.ring_);
}

}  // namespace dhtlb::sim::testing
