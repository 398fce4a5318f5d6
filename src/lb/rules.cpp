#include "lb/rules.hpp"

#include <array>
#include <limits>
#include <optional>
#include <utility>

#include "hashing/sha1.hpp"
#include "support/check.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::lb {

namespace {

/// Records the outcome of a Sybil placement in the counters.
void record_placement(std::uint64_t acquired,
                      sim::StrategyCounters& counters) {
  ++counters.sybils_created;
  counters.tasks_acquired_by_sybils += acquired;
  if (acquired == 0) ++counters.failed_placements;
}

/// "Creating a Sybil node at a random address": a fresh SHA-1 ID, the
/// same generator real joins use (§V).
void place_at_random(NodeTurn& turn) {
  const auto id = hashing::Sha1::hash_u64(turn.rng());
  if (const auto acquired = turn.world.create_sybil(turn.idx, id)) {
    record_placement(*acquired, turn.counters);
  }
}

/// One victim probe, costing one workload query: keeps the most loaded
/// arc that holds tasks, belongs to another node and is not in `marks`
/// (the first such arc on ties).
void probe_victim(NodeTurn& turn, const sim::ArcView& arc,
                  const MarkedArcs* marks,
                  std::optional<sim::ArcView>& victim) {
  ++turn.counters.workload_queries;
  if (arc.owner == turn.idx || arc.task_count == 0) return;
  if (marks != nullptr && marks->contains(arc.id)) return;
  if (!victim || arc.task_count > victim->task_count) victim = arc;
}

/// The smart-neighbor information model: probe every successor of the
/// node's PRIMARY ring position.  Its Sybils' lists would point at the
/// same neighborhood-sized slices elsewhere, but the paper describes
/// the node acting from one vantage point.
std::optional<sim::ArcView> most_loaded_successor(
    NodeTurn& turn, const MarkedArcs* marks = nullptr) {
  std::optional<sim::ArcView> victim;
  for (const sim::ArcView& arc :
       turn.world.successor_arcs(turn.world.primary_slot(turn.idx),
                                 turn.world.params().num_successors)) {
    probe_victim(turn, arc, marks, victim);
  }
  return victim;
}

/// True iff the arc (pred, id] has at least one free interior ID.
bool has_interior(const sim::ArcView& arc) {
  return support::clockwise_distance(arc.pred, arc.id) >
         support::Uint160{1};
}

/// A strength-s node stays hungry while it has less than s ticks of work
/// queued: strength * sybilThreshold + strength - 1, so strength-1 nodes
/// reduce to the plain sybilThreshold.  The threshold accepts any u64,
/// so the product saturates instead of wrapping.
std::uint64_t appetite(const sim::World& world, sim::NodeIndex idx) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t strength = world.physical(idx).strength;
  const std::uint64_t threshold = world.params().sybil_threshold;
  if (threshold > (kMax - (strength - 1)) / strength) return kMax;
  return strength * threshold + (strength - 1);
}

}  // namespace

// Random Injection (§IV-B) — the paper's best-performing strategy.  Every
// node whose workload is at or below the sybilThreshold creates ONE Sybil
// at a random SHA-1 address, up to its Sybil cap (one per decision, to
// avoid overwhelming the network).  Placement is global-random: the Sybil
// lands in an arbitrary arc of the ring, which statistically targets the
// largest (and hence most loaded) arcs — the same mechanism that makes
// churn balance the network, but without ever removing a worker.
void random_injection(NodeTurn& turn, std::uint64_t /*unused*/) {
  if (!may_create_sybil(turn.world, turn.idx)) return;
  place_at_random(turn);
}

// Neighbor Injection (§IV-C), in both variants.  An under-utilized node
// restricts its search to its successor list (numSuccessors entries),
// limiting network traffic relative to Random Injection:
//
//  * Estimating: pick the successor with the LARGEST ownership arc — a
//    zero-message heuristic assuming big arc => much work — and drop a
//    Sybil at a random ID inside that arc.
//  * Smart: query every successor for its actual task count (one message
//    each, counted), then split the most-loaded successor's arc at its
//    midpoint, taking about half its keys.  When querying reveals there
//    is nothing to take it skips the placement (the estimating variant
//    cannot know this and pays the failed placement instead).
//
// Optional (§IV-C's suggestion, params.mark_failed_ranges): after a
// placement that acquired no work, mark that successor's arc invalid so
// later rounds skip it instead of spamming the same empty gap.
void neighbor_injection(NodeTurn& turn, std::uint64_t mode) {
  sim::World& world = turn.world;
  const sim::NodeIndex idx = turn.idx;
  if (!may_create_sybil(world, idx)) return;
  MarkedArcs* marks = world.params().mark_failed_ranges
                          ? &turn.failed_ranges[idx]
                          : nullptr;

  std::optional<sim::ArcView> target;
  if (mode == kSmart) {
    target = most_loaded_successor(turn, marks);
  } else {
    support::Uint160 best_size{};
    for (const sim::ArcView& arc : world.successor_arcs(
             world.primary_slot(idx), world.params().num_successors)) {
      if (arc.owner == idx) continue;  // don't shave our own Sybils
      if (marks != nullptr && marks->contains(arc.id)) continue;
      const support::Uint160 size = support::arc_size(arc.pred, arc.id);
      if (!target || size > best_size) {
        target = arc;
        best_size = size;
      }
    }
  }
  if (!target || !has_interior(*target)) return;

  const support::Uint160 placement =
      mode == kEstimate ? turn.rng.uniform_in_arc(target->pred, target->id)
                        : support::arc_midpoint(target->pred, target->id);
  const auto acquired = world.create_sybil(idx, placement);
  if (!acquired) return;  // ID collision; try again next round
  record_placement(*acquired, turn.counters);
  if (marks != nullptr && *acquired == 0) {
    marks->insert(target->id);
    ++turn.counters.ranges_marked_invalid;
  }
}

// Invitation (§IV-D) — the reactive strategy.  Roles are reversed
// relative to the injection strategies: a node that is OVERBURDENED
// (workload strictly above the sybilThreshold, per §IV-D "nodes determine
// whether or not they are overburdened using the sybilThreshold
// parameter") announces to the predecessor list of its most-loaded vnode
// (§V-B: nodes track numSuccessors predecessors too) that it needs help.
// Among the predecessors whose own workload is at or below the
// sybilThreshold and who still have Sybil capacity, the least loaded
// DISTINCT physical owner accepts, creating a Sybil at the midpoint of
// that arc — taking about half its keys.  The invitation is refused
// (counted, no Sybil) when no predecessor qualifies.
//
// Because queries and injections happen only on demand, this strategy
// generates far less traffic than the proactive ones — the trade-off the
// paper highlights.
void invitation(NodeTurn& turn, std::uint64_t /*unused*/) {
  sim::World& world = turn.world;
  const sim::NodeIndex idx = turn.idx;
  const std::uint64_t threshold = world.params().sybil_threshold;
  if (world.workload(idx) <= threshold) return;  // not overburdened

  // The announcer's most-loaded vnode is the arc worth splitting (purely
  // local information).  Overloaded means workload > 0, so that arc
  // holds tasks.  The arc and its predecessor walk share one ring search.
  const sim::World::ArcWalk predecessors = world.predecessor_arcs(
      world.busiest_vnode(idx), world.params().num_successors);
  const sim::ArcView heavy = predecessors.start_arc();
  if (!has_interior(heavy)) return;  // nowhere to stand
  ++turn.counters.invitations_sent;

  // Gather the candidate owners first and hint their records, so the
  // record misses overlap instead of coming one per predecessor.
  std::array<sim::NodeIndex, sim::Params::kMaxSuccessors> candidates;
  std::size_t count = 0;
  for (const sim::ArcView& parc : predecessors) {
    if (parc.owner == idx) continue;  // don't invite ourselves
    world.prefetch_node(parc.owner, sim::World::NodeLines::kRecord);
    candidates[count++] = parc.owner;
  }

  std::optional<sim::NodeIndex> helper;
  std::uint64_t helper_load = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const sim::NodeIndex owner = candidates[i];
    const std::uint64_t load = world.workload(owner);
    if (load > threshold) continue;
    if (world.sybil_count(owner) >= world.sybil_cap(owner)) continue;
    if (!helper || load < helper_load) {
      helper = owner;
      helper_load = load;
    }
  }
  if (!helper) return;  // §IV-D: the invitation may be refused

  const support::Uint160 placement =
      support::arc_midpoint(heavy.pred, heavy.id);
  if (const auto acquired = world.create_sybil(*helper, placement)) {
    ++turn.counters.invitations_accepted;
    record_placement(*acquired, turn.counters);
  }
}

// Strength-aware balancing — the paper's first future-work direction.
// §VII: heterogeneous networks balanced *load* but not *efficiency*,
// because weak nodes acquired work from strong nodes and then took longer
// to finish it.  "An avenue for future work could consider the node
// strength as a factor."  This rule does so in two ways, both still
// using only local information:
//
//  1. Proportional appetite: a node seeks a Sybil while its workload is
//     at most strength * sybilThreshold + strength - 1 (saturating), i.e.
//     a strength-s node stays hungry with up to s-1 tasks in flight,
//     keeping strong machines saturated.  The Sybil cap still applies.
//  2. Strength-weighted acquisition: the node probes its successors (one
//     query each, as in smart neighbor injection) for the most loaded
//     foreign arc and places its Sybil so it takes strength/(strength +
//     owner strength) of that arc — a weak node takes little from a
//     strong owner and a strong node takes a lot from a weak owner.  In
//     a dry neighborhood (no foreign successor holds tasks) it falls back
//     to a random placement, as Random Injection would, so the node is
//     not condemned to idle.
//
// With strength 1 everywhere the appetite is the sybilThreshold and the
// split is a halving, so on homogeneous networks the rule behaves like
// smart neighbor injection with Random Injection's fallback.
void strength_aware(NodeTurn& turn, std::uint64_t /*unused*/) {
  sim::World& world = turn.world;
  const sim::NodeIndex idx = turn.idx;
  if (world.workload(idx) > appetite(world, idx)) return;
  if (world.sybil_count(idx) >= world.sybil_cap(idx)) return;

  const std::optional<sim::ArcView> target = most_loaded_successor(turn);
  if (!target) {
    place_at_random(turn);
    return;
  }
  if (!has_interior(*target)) return;

  // Keys are uniform within the arc, so the expected key share matches
  // the distance share.  Division first avoids the mod-2^160 wrap a
  // multiply-first order would risk.  The divisor is 32 bits wide and
  // max-sybils allows strengths up to 2^32 - 1, so both strengths are
  // halved until their sum fits; a sum that already fits is untouched.
  std::uint64_t mine = world.physical(idx).strength;
  std::uint64_t theirs = world.physical(target->owner).strength;
  while (mine + theirs > std::numeric_limits<std::uint32_t>::max()) {
    mine /= 2;
    theirs /= 2;
  }
  const support::Uint160 span =
      support::clockwise_distance(target->pred, target->id);
  support::Uint160 offset =
      span.div_small(static_cast<std::uint32_t>(mine + theirs))
          .mul_small(static_cast<std::uint32_t>(mine));
  if (offset.is_zero()) offset = support::Uint160{1};
  const support::Uint160 placement = target->pred + offset;
  if (placement == target->id) return;  // arc too small to share

  if (const auto acquired = world.create_sybil(idx, placement)) {
    record_placement(*acquired, turn.counters);
  }
}

// Chosen-ID balancing — the paper's second future-work direction.  §VII:
// "if we removed the assumption that nodes cannot choose their own ID or
// those of their Sybil, this presents even more strategies."  Instead of
// hashing for an ID that merely lands *somewhere* in a target arc, the
// node asks the target for the MEDIAN KEY of its remaining tasks and
// adopts that key as its Sybil ID — splitting the target's *key
// multiset* exactly in half regardless of how the keys cluster.
//
// This is the upper bound for any single-split placement policy: a
// uniform or midpoint placement halves keys only in expectation.
// Comparing it against Random / Neighbor Injection quantifies how much of
// the remaining gap to the ideal runtime is attributable to the
// no-ID-choice assumption.  The scope picks the victim: the most loaded
// foreign vnode among the successor list, or among an equal-sized random
// sample of ring arcs.  Cost model: one query per probed arc plus one for
// the median, counted in workload_queries.
void chosen_id(NodeTurn& turn, std::uint64_t scope) {
  sim::World& world = turn.world;
  const sim::NodeIndex idx = turn.idx;
  if (!may_create_sybil(world, idx)) return;

  std::optional<sim::ArcView> target;
  if (scope == kNeighborhood) {
    target = most_loaded_successor(turn);
  } else {
    for (std::size_t probe = 0; probe < world.params().num_successors;
         ++probe) {
      probe_victim(turn, world.arc_covering(turn.rng.uniform_u160()),
                   nullptr, target);
    }
  }
  if (!target || target->task_count < 2) return;  // nothing to halve

  // The Sybil takes exactly the lower half of the victim's keys (the
  // half-open arc (pred, lower median] contains them by construction).
  ++turn.counters.workload_queries;  // the median query costs one message
  const auto median =
      world.nth_task_key(*target, (target->task_count - 1) / 2);
  if (!median || *median == target->id) return;
  if (const auto acquired = world.create_sybil(idx, *median)) {
    record_placement(*acquired, turn.counters);
  }
}

// Item balancing — the neighbor-move family (non-Sybil competitor).
// Chawachat & Fakcharoenphol, "A simpler load-balancing algorithm for
// range-partitioned data in Peer-to-Peer systems" (PAPERS.md): each node
// periodically compares its item count with its ring successor and, when
// the ratio exceeds a constant threshold δ, moves the boundary between
// the two ranges so both sides end up with half the combined items.  The
// paper proves a constant-factor imbalance bound with O(1) amortized item
// movement — without creating any extra ring presence.  δ = 2 is the
// aggressive setting (tightest balance, most movement); larger values
// trade imbalance for fewer moved items.
//
// Mapped onto this simulator: the boundary between a vnode and its
// successor IS the vnode's own ID (it owns (pred, id]), so a boundary
// adjustment is a vnode relocation (World::move_vnode).  Moving the ID
// counterclockwise sheds the tail of the node's keys to the successor;
// moving it clockwise into the successor's arc acquires that arc's head.
// The exact split point comes from nth_task_key — the generalized form
// of the chosen-ID median query — so the halving is exact on the key
// multiset, not merely in expectation over the ID space.
//
// Zero Sybils, zero extra vnodes: load moves by renegotiating one range
// boundary per node per decision round, so the round retires no Sybils
// for this family.  Cost model: one workload probe of the successor plus
// one key query per attempted move, counted in workload_queries;
// successful moves count boundary_moves and the keys shifted count
// tasks_moved.
void item_balance(NodeTurn& turn, std::uint64_t delta) {
  sim::World& world = turn.world;
  const sim::NodeIndex idx = turn.idx;
  // The primary vnode's own ID is the boundary this node may renegotiate;
  // Sybil vnodes (left behind by a strategy hot-swap) are ignored.  Its
  // own arc and its successor's come from one walk: one ring search.
  const sim::Slot self = world.primary_slot(idx);
  const sim::World::ArcWalk succs = world.successor_arcs(self, 1);
  std::optional<sim::ArcView> succ;
  for (const sim::ArcView& arc : succs) succ = arc;
  if (!succ || succ->owner == idx) return;  // alone, or own Sybil next
  ++turn.counters.workload_queries;  // probe the successor's item count
  const sim::ArcView own = succs.start_arc();
  const std::uint64_t mine = own.task_count;
  const std::uint64_t theirs = succ->task_count;
  if (mine + theirs < 2) return;  // nothing worth splitting

  std::optional<support::Uint160> split;
  const std::uint64_t half = (mine + theirs) / 2;
  if (mine >= delta * theirs + 1) {
    // Shed: keep the first `half` keys of our arc and hand the rest to
    // the successor by retreating the boundary to the half-th key.
    if (half == 0 || half >= mine) return;
    ++turn.counters.workload_queries;  // the split-key query is a message
    split = world.nth_task_key(own, half - 1);
  } else if (theirs >= delta * mine + 1) {
    // Acquire: advance the boundary into the successor's arc so its
    // first (half - mine) keys in arc order come over to us.
    const std::uint64_t take = half - mine;
    if (take == 0 || take >= theirs) return;
    ++turn.counters.workload_queries;
    split = world.nth_task_key(*succ, take - 1);
  } else {
    return;  // within the δ band — the boundary stays put
  }

  if (!split || *split == own.id || *split == succ->id) return;
  if (const auto moved = world.move_vnode(self, *split)) {
    ++turn.counters.boundary_moves;
    turn.counters.tasks_moved += *moved;
  }
}

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
