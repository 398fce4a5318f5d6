// Test helpers over the public World API: a gtest predicate for "the
// full invariant audit passes", the serial form of the engine's
// consumption phase for one node, and the slot of the vnode at an id for
// tests whose reference models name vnodes by id.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/audit.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim::testing {

/// EXPECT_TRUE(AuditClean(world)): on failure the message is the audit
/// report itself, one "check: detail" line per violation.
inline ::testing::AssertionResult AuditClean(const World& world) {
  const AuditReport report = InvariantAuditor(world).run();
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

/// Consumes up to `budget` of `idx`'s tasks with picks from `rng` and
/// settles the remaining-task counter, as the engine's consume phase
/// does for one node.  Returns the tasks consumed.
inline std::uint64_t consume(World& world, NodeIndex idx,
                             std::uint64_t budget, support::Rng& rng) {
  const std::uint64_t consumed = world.consume_local(idx, budget, rng);
  world.debit_remaining(consumed);
  return consumed;
}

/// Slot of the vnode at ring id `id`, read off a lookup for `id`
/// (World::arc_covering).  Fails the calling test when no vnode sits at
/// `id`.
inline Slot slot_at_id(const World& world, const support::Uint160& id) {
  const ArcView arc = world.arc_covering(id);
  EXPECT_EQ(arc.id, id) << "no vnode at " << id;
  return arc.slot;
}

}  // namespace dhtlb::sim::testing
