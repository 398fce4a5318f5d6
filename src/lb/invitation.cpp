#include "lb/invitation.hpp"

#include <optional>

#include "support/ring_math.hpp"

namespace dhtlb::lb {

void Invitation::decide(sim::World& world, support::Rng& rng,
                        sim::StrategyCounters& counters) {
  const std::uint64_t threshold = world.params().sybil_threshold;
  shuffled_alive_into(world, rng, order_);
  for (const sim::NodeIndex idx : order_) {
    retire_idle_sybils(world, idx, counters);
    if (world.workload(idx) <= threshold) continue;  // not overburdened

    // The announcer's most-loaded vnode is the arc worth splitting
    // (purely local information).  Overloaded means workload > 0, so
    // that arc holds tasks.
    const sim::ArcView heavy =
        world.arc_of(world.vnode_id(world.busiest_vnode(idx)));
    const support::Uint160 span =
        support::clockwise_distance(heavy.pred, heavy.id);
    if (span <= support::Uint160{1}) continue;  // nowhere to stand

    // Announce to the predecessor list of that vnode (§V-B: nodes track
    // numSuccessors predecessors too).  Allocation-free arc walk.
    ++counters.invitations_sent;

    // The helper: least-loaded DISTINCT physical owner at or below the
    // threshold with spare Sybil capacity.
    std::optional<sim::NodeIndex> helper;
    std::uint64_t helper_load = 0;
    for (const sim::ArcView& parc :
         world.predecessor_arcs(heavy.id, world.params().num_successors)) {
      if (parc.owner == idx) continue;  // don't invite ourselves
      const std::uint64_t load = world.workload(parc.owner);
      if (load > threshold) continue;
      if (world.sybil_count(parc.owner) >=
          world.sybil_cap(parc.owner)) {
        continue;
      }
      if (!helper || load < helper_load) {
        helper = parc.owner;
        helper_load = load;
      }
    }
    if (!helper) continue;  // §IV-D: the invitation may be refused

    const support::Uint160 placement =
        support::arc_midpoint(heavy.pred, heavy.id);
    if (const auto acquired = world.create_sybil(*helper, placement)) {
      ++counters.invitations_accepted;
      record_placement(*acquired, counters);
    }
  }
}

}  // namespace dhtlb::lb
