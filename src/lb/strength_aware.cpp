#include "lb/strength_aware.hpp"

#include <optional>

#include "hashing/sha1.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::lb {

std::uint64_t StrengthAware::appetite(const sim::World& world,
                                      sim::NodeIndex idx) {
  const std::uint64_t strength = world.physical(idx).strength;
  // strength-1 nodes reduce to the plain sybilThreshold; a strength-s
  // node stays hungry while it has less than s ticks of work queued.
  return strength * world.params().sybil_threshold + (strength - 1);
}

void StrengthAware::decide(sim::World& world, support::Rng& rng,
                           sim::StrategyCounters& counters) {
  shuffled_alive_into(world, rng, order_);
  for (const sim::NodeIndex idx : order_) {
    retire_idle_sybils(world, idx, counters);
    if (world.workload(idx) > appetite(world, idx)) continue;
    if (world.sybil_count(idx) >= world.sybil_cap(idx)) continue;

    const unsigned my_strength = world.physical(idx).strength;
    const support::Uint160 self = world.primary_id(idx);

    // Probe the successor list for the most loaded foreign arc (the
    // smart-neighbor information model: one query per successor).
    std::optional<sim::ArcView> target;
    for (const sim::ArcView& arc :
         world.successor_arcs(self, world.params().num_successors)) {
      ++counters.workload_queries;
      if (arc.owner == idx || arc.task_count == 0) continue;
      if (!target || arc.task_count > target->task_count) target = arc;
    }

    if (!target) {
      // Dry neighborhood: fall back to a random global placement so the
      // node is not condemned to idle (Random Injection behavior).
      const auto id = hashing::Sha1::hash_u64(rng());
      if (const auto acquired = world.create_sybil(idx, id)) {
        record_placement(*acquired, counters);
      }
      continue;
    }

    const support::Uint160 span =
        support::clockwise_distance(target->pred, target->id);
    if (span <= support::Uint160{1}) continue;

    // Strength-weighted split: take strength/(strength + owner strength)
    // of the arc.  Keys are uniform within the arc, so the expected key
    // share matches the distance share.  Division first avoids the
    // mod-2^160 wrap a multiply-first order would risk.
    const unsigned owner_strength =
        world.physical(target->owner).strength;
    const std::uint32_t denom = my_strength + owner_strength;
    support::Uint160 offset = span.div_small(denom).mul_small(my_strength);
    if (offset.is_zero()) offset = support::Uint160{1};
    const support::Uint160 placement = target->pred + offset;
    if (placement == target->id) continue;  // arc too small to share

    if (const auto acquired = world.create_sybil(idx, placement)) {
      record_placement(*acquired, counters);
    }
  }
}

}  // namespace dhtlb::lb
