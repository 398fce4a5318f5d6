#include "lb/common.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dhtlb::lb {

std::uint64_t retire_idle_sybils(sim::World& world, sim::NodeIndex idx,
                                 sim::StrategyCounters& counters) {
  const std::uint64_t sybils = world.sybil_count(idx);
  if (sybils == 0 || world.workload(idx) != 0) return 0;
  world.remove_sybils(idx);
  DHTLB_ASSERT(world.sybil_count(idx) == 0,
               "retire_idle_sybils: node " << idx
                                           << " still holds Sybils after"
                                              " retirement");
  counters.sybils_retired += sybils;
  return sybils;
}

bool may_create_sybil(const sim::World& world, sim::NodeIndex idx) {
  return world.workload(idx) <= world.params().sybil_threshold &&
         world.sybil_count(idx) < world.sybil_cap(idx);
}

void record_placement(std::uint64_t acquired,
                      sim::StrategyCounters& counters) {
  ++counters.sybils_created;
  counters.tasks_acquired_by_sybils += acquired;
  if (acquired == 0) ++counters.failed_placements;
}

std::vector<sim::NodeIndex> shuffled_alive(const sim::World& world,
                                           support::Rng& rng) {
  std::vector<sim::NodeIndex> order;
  shuffled_alive_into(world, rng, order);
  return order;
}

void shuffled_alive_into(const sim::World& world, support::Rng& rng,
                         std::vector<sim::NodeIndex>& out) {
  out = world.alive_indices();
  // Fisher-Yates with the simulation's own RNG (std::shuffle's output is
  // implementation-defined, which would break cross-platform determinism).
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(out[i - 1], out[j]);
  }
}

}  // namespace dhtlb::lb
