// Per-node rules of the decision round, and the building blocks they
// share (§IV-B/C/D, §VII).
//
// Every balancing strategy runs the same round (lb/factory.cpp): visit
// the alive nodes in a random order, retire an idle node's Sybils, then
// apply the strategy's per-node rule.  The rule is what differentiates
// the strategies; each one is a free function over a NodeTurn plus the
// parameter its strategy-table entry carries (a mode, a scope or δ).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/strategy.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::lb {

struct U160Hash {
  std::size_t operator()(const support::Uint160& v) const {
    return static_cast<std::size_t>(v.low64() ^ v.high64());
  }
};

/// Arcs (keyed by their owning vnode ID) a physical node has marked
/// invalid after a fruitless neighbor-injection placement; only kept when
/// params.mark_failed_ranges is set.  Both containers are probed with
/// contains()/insert() only — never iterated — so their unordered layout
/// cannot reach goldens.
// dhtlb:lint-allow(unordered-iteration)
using MarkedArcs = std::unordered_set<support::Uint160, U160Hash>;
// dhtlb:lint-allow(unordered-iteration)
using FailedRanges = std::unordered_map<sim::NodeIndex, MarkedArcs>;

/// What a per-node rule acts on: one node's turn in a decision round,
/// with the round's world, RNG and counters and the driver instance's
/// memory.
struct NodeTurn {
  sim::World& world;
  support::Rng& rng;
  sim::StrategyCounters& counters;
  FailedRanges& failed_ranges;
  sim::NodeIndex idx = 0;
};

/// Neighbor injection's rule parameter.
enum NeighborMode : std::uint64_t {
  kEstimate,  // largest successor arc, no queries
  kSmart,     // query successors, split the most loaded
};

/// Chosen-ID's rule parameter: where a node searches for a victim.
enum ChosenIdScope : std::uint64_t {
  kNeighborhood,  // the successor list (neighbor injection's reach)
  kGlobal,        // a random sample of ring arcs (idealized gossip)
};

// The rules, one per strategy family; each is documented in rules.cpp.
// Item balance's parameter is δ itself.
void random_injection(NodeTurn& turn, std::uint64_t unused);
void neighbor_injection(NodeTurn& turn, std::uint64_t mode);
void invitation(NodeTurn& turn, std::uint64_t unused);
void strength_aware(NodeTurn& turn, std::uint64_t unused);
void chosen_id(NodeTurn& turn, std::uint64_t scope);
void item_balance(NodeTurn& turn, std::uint64_t delta);

/// §IV-B: "If a node has at least one Sybil, but no work, it has its
/// Sybils quit the network."  The round applies it to every node before
/// a Sybil family's rule.  Returns the number retired.
std::uint64_t retire_idle_sybils(sim::World& world, sim::NodeIndex idx,
                                 sim::StrategyCounters& counters);

/// True iff `idx` may create a Sybil this round: workload at or below
/// the sybilThreshold and Sybil count below the cap (maxSybils /
/// strength, §V-B).
bool may_create_sybil(const sim::World& world, sim::NodeIndex idx);

/// Fills `out` (reusing its capacity) with the alive node indices in a
/// random visitation order.  Decision rounds visit nodes in random order
/// so no physical node is systematically first to grab work (the
/// paper's nodes act concurrently).  The driver passes a member scratch
/// buffer, so a round allocates nothing.
void shuffled_alive_into(const sim::World& world, support::Rng& rng,
                         std::vector<sim::NodeIndex>& out);

}  // namespace dhtlb::lb
