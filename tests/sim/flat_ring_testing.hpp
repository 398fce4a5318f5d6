// Test helpers over FlatRing's public API: an insert, erase or
// membership probe at an id, each one lower_bound plus the cursor form.
// The ring itself only mutates at a cursor; these keep tests that build
// rings from id lists short.
#pragma once

#include <gtest/gtest.h>

#include "sim/flat_ring.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim::testing {

/// True iff a vnode sits at `id`.
inline bool holds_id(const FlatRing& ring, const support::Uint160& id) {
  return ring.holds(ring.lower_bound(id), id);
}

/// Inserts a vnode at `id`, which must not be in the ring; returns its
/// slot.
inline Slot insert_id(FlatRing& ring, const support::Uint160& id,
                      NodeIndex owner = 0, bool is_sybil = false) {
  const FlatRing::Cursor at = ring.lower_bound(id);
  EXPECT_FALSE(ring.holds(at, id)) << "insert_id: " << id << " is in the ring";
  return ring.insert_at(at, id, owner, is_sybil);
}

/// Erases the vnode at `id`, which must be in the ring.
inline void erase_id(FlatRing& ring, const support::Uint160& id) {
  const FlatRing::Cursor at = ring.lower_bound(id);
  ASSERT_TRUE(ring.holds(at, id)) << "erase_id: " << id << " not in ring";
  ring.erase_at(at);
}

/// Cursor of the vnode at `id`, which must be in the ring.
inline FlatRing::Cursor cursor_at_id(const FlatRing& ring,
                                     const support::Uint160& id) {
  const FlatRing::Cursor at = ring.lower_bound(id);
  EXPECT_TRUE(ring.holds(at, id)) << "cursor_at_id: " << id
                                  << " not in ring";
  return at;
}

}  // namespace dhtlb::sim::testing
