#include "lb/item_balance.hpp"

#include <optional>

#include "sim/world.hpp"

namespace dhtlb::lb {

void ItemBalance::decide(sim::World& world, support::Rng& rng,
                         sim::StrategyCounters& counters) {
  shuffled_alive_into(world, rng, order_);
  for (const sim::NodeIndex idx : order_) {
    // The primary vnode's own ID is the boundary this node may
    // renegotiate; Sybil vnodes (left behind by a strategy hot-swap)
    // are ignored — this family never creates ring presence.
    const support::Uint160 self = world.primary_id(idx);
    std::optional<sim::ArcView> succ;
    for (const sim::ArcView& arc : world.successor_arcs(self, 1)) {
      succ = arc;
    }
    if (!succ || succ->owner == idx) continue;  // alone, or own Sybil next
    ++counters.workload_queries;  // probe the successor's item count
    const std::uint64_t mine = world.arc_of(self).task_count;
    const std::uint64_t theirs = succ->task_count;
    if (mine + theirs < 2) continue;  // nothing worth splitting

    std::optional<support::Uint160> split;
    std::uint64_t half = (mine + theirs) / 2;
    if (mine >= threshold_ * theirs + 1) {
      // Shed: keep the first `half` keys of our arc and hand the rest
      // to the successor by retreating the boundary to the half-th key.
      if (half == 0 || half >= mine) continue;
      ++counters.workload_queries;  // the split-key query is a message
      split = world.nth_task_key(self, half - 1);
    } else if (theirs >= threshold_ * mine + 1) {
      // Acquire: advance the boundary into the successor's arc so its
      // first (half - mine) keys in arc order come over to us.
      const std::uint64_t take = half - mine;
      if (take == 0 || take >= theirs) continue;
      ++counters.workload_queries;
      split = world.nth_task_key(succ->id, take - 1);
    } else {
      continue;  // within the δ band — the boundary stays put
    }

    if (!split || *split == self || *split == succ->id) continue;
    if (world.ring_contains(*split)) continue;  // pathological collision
    if (const auto moved = world.move_vnode(self, *split)) {
      ++counters.boundary_moves;
      counters.tasks_moved += *moved;
    }
  }
}

}  // namespace dhtlb::lb
