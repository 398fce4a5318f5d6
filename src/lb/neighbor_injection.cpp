#include "lb/neighbor_injection.hpp"

#include <optional>

#include "support/ring_math.hpp"

namespace dhtlb::lb {

void NeighborInjection::decide(sim::World& world, support::Rng& rng,
                               sim::StrategyCounters& counters) {
  const bool use_marks = world.params().mark_failed_ranges;
  shuffled_alive_into(world, rng, order_);
  for (const sim::NodeIndex idx : order_) {
    retire_idle_sybils(world, idx, counters);
    if (!may_create_sybil(world, idx)) continue;

    // The node scans from its PRIMARY ring position; its Sybils' lists
    // would point at the same neighborhood-sized slices elsewhere, but
    // the paper describes the node acting from one vantage point.  The
    // successor list is consumed as an allocation-free arc walk.
    const support::Uint160 self = world.primary_id(idx);
    const auto successors =
        world.successor_arcs(self, world.params().num_successors);

    auto* marks = use_marks ? &invalid_[idx] : nullptr;

    // Choose the target successor arc.
    std::optional<sim::ArcView> target;
    if (mode_ == Mode::kEstimate) {
      support::Uint160 best_size{};
      for (const sim::ArcView& arc : successors) {
        if (arc.owner == idx) continue;  // don't shave our own Sybils
        if (marks != nullptr && marks->contains(arc.id)) continue;
        const support::Uint160 size = support::arc_size(arc.pred, arc.id);
        if (!target || size > best_size) {
          target = arc;
          best_size = size;
        }
      }
    } else {
      std::uint64_t best_tasks = 0;
      for (const sim::ArcView& arc : successors) {
        ++counters.workload_queries;  // smart variant pays one probe each
        if (arc.owner == idx) continue;
        if (marks != nullptr && marks->contains(arc.id)) continue;
        if (!target || arc.task_count > best_tasks) {
          target = arc;
          best_tasks = arc.task_count;
        }
      }
      // Querying revealed there is nothing to take; skip the placement
      // entirely (the estimating variant cannot know this and pays the
      // failed placement instead).
      if (target && best_tasks == 0) continue;
    }
    if (!target) continue;

    // The arc must contain at least one free interior ID.
    const support::Uint160 span =
        support::clockwise_distance(target->pred, target->id);
    if (span <= support::Uint160{1}) continue;

    const support::Uint160 placement =
        mode_ == Mode::kEstimate
            ? rng.uniform_in_arc(target->pred, target->id)
            : support::arc_midpoint(target->pred, target->id);
    const auto acquired = world.create_sybil(idx, placement);
    if (!acquired) continue;  // ID collision; try again next round
    record_placement(*acquired, counters);
    if (marks != nullptr && *acquired == 0) {
      marks->insert(target->id);
      ++counters.ranges_marked_invalid;
    }
  }
}

}  // namespace dhtlb::lb
