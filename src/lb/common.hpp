// Shared building blocks for the Sybil-based strategies (§IV-B/C/D).
//
// All three injection strategies share the same per-node preamble on a
// decision tick: retire Sybils when the node is idle, check the
// sybilThreshold and the Sybil cap, and (on success) place exactly one
// new Sybil.  The placement policy is what differentiates them.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/strategy.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

namespace dhtlb::lb {

/// §IV-B: "If a node has at least one Sybil, but no work, it has its
/// Sybils quit the network."  Applied by every Sybil strategy at the
/// start of its per-node decision.  Returns the number retired.
std::uint64_t retire_idle_sybils(sim::World& world, sim::NodeIndex idx,
                                 sim::StrategyCounters& counters);

/// True iff `idx` may create a Sybil this round: workload at or below
/// the sybilThreshold and Sybil count below the cap (maxSybils /
/// strength, §V-B).
bool may_create_sybil(const sim::World& world, sim::NodeIndex idx);

/// Records the outcome of a placement in the counters.
void record_placement(std::uint64_t acquired,
                      sim::StrategyCounters& counters);

/// Fills `out` (reusing its capacity) with the alive node indices in a
/// random visitation order.  Decision rounds visit nodes in random order
/// so no physical node is systematically first to grab work (the
/// paper's nodes act concurrently).  Strategies pass a member scratch
/// buffer, so a round allocates nothing.
void shuffled_alive_into(const sim::World& world, support::Rng& rng,
                         std::vector<sim::NodeIndex>& out);

}  // namespace dhtlb::lb
