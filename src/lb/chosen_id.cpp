#include "lb/chosen_id.hpp"

#include <optional>

#include "support/ring_math.hpp"

namespace dhtlb::lb {

void ChosenIdSplit::decide(sim::World& world, support::Rng& rng,
                           sim::StrategyCounters& counters) {
  const std::size_t sample = world.params().num_successors;
  shuffled_alive_into(world, rng, order_);
  for (const sim::NodeIndex idx : order_) {
    retire_idle_sybils(world, idx, counters);
    if (!may_create_sybil(world, idx)) continue;

    // Victim selection: most loaded foreign vnode among either the
    // successor list or an equal-sized random sample of ring arcs.
    std::optional<sim::ArcView> target;
    if (scope_ == Scope::kNeighborhood) {
      const support::Uint160 self = world.primary_id(idx);
      for (const sim::ArcView& arc : world.successor_arcs(self, sample)) {
        ++counters.workload_queries;
        if (arc.owner == idx || arc.task_count == 0) continue;
        if (!target || arc.task_count > target->task_count) target = arc;
      }
    } else {
      for (std::size_t probe = 0; probe < sample; ++probe) {
        const sim::ArcView arc = world.arc_covering(rng.uniform_u160());
        ++counters.workload_queries;
        if (arc.owner == idx || arc.task_count == 0) continue;
        if (!target || arc.task_count > target->task_count) target = arc;
      }
    }
    if (!target || target->task_count < 2) continue;  // nothing to halve

    // Ask the victim for its median task key and adopt it as the Sybil
    // ID: the Sybil takes exactly the lower half of the victim's keys
    // (the half-open arc (pred, median] contains them by construction).
    ++counters.workload_queries;  // the median query costs one message
    const auto median = world.median_task_key(target->id);
    if (!median || *median == target->id) continue;
    if (world.ring_contains(*median)) continue;  // pathological collision

    if (const auto acquired = world.create_sybil(idx, *median)) {
      record_placement(*acquired, counters);
    }
  }
}

}  // namespace dhtlb::lb
