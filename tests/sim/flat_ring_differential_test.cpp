// Differential test: FlatRing against the std::map<Uint160, payload>
// representation it replaced.  Both sides consume identical randomized
// join/leave/lookup sequences; after every mutation the flat ring must
// give the same successor, predecessor, cover, and owner answers as the
// map, and its deep index_consistent() check must hold.  Every seed grows
// the ring past several block capacities (so blocks split, many times
// and unevenly) and then erases a contiguous run of more than two
// blocks' worth of ids (so whole blocks empty and are dropped).  This
// pins the blocked index to the simple ordered-map semantics the rest of
// the simulator was written against.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/flat_ring.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;

struct RefPayload {
  NodeIndex owner = 0;
  bool is_sybil = false;
};

/// The pre-flat-ring representation, kept verbatim as the oracle.
class MapReference {
 public:
  void insert(const Uint160& id, NodeIndex owner, bool is_sybil) {
    vnodes_[id] = RefPayload{owner, is_sybil};
  }
  void erase(const Uint160& id) { vnodes_.erase(id); }
  bool contains(const Uint160& id) const { return vnodes_.count(id) != 0; }
  std::size_t size() const { return vnodes_.size(); }

  /// First vnode clockwise at or after `point`, wrapping past zero.
  Uint160 cover(const Uint160& point) const {
    auto it = vnodes_.lower_bound(point);
    if (it == vnodes_.end()) it = vnodes_.begin();
    return it->first;
  }

  Uint160 successor(const Uint160& id) const {
    auto it = std::next(vnodes_.find(id));
    if (it == vnodes_.end()) it = vnodes_.begin();
    return it->first;
  }

  Uint160 predecessor(const Uint160& id) const {
    auto it = vnodes_.find(id);
    if (it == vnodes_.begin()) it = vnodes_.end();
    return std::prev(it)->first;
  }

  const RefPayload& payload(const Uint160& id) const {
    return vnodes_.at(id);
  }

  const std::map<Uint160, RefPayload>& all() const { return vnodes_; }

 private:
  std::map<Uint160, RefPayload> vnodes_;
};

class FlatRingDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatRingDifferentialTest, RandomChurnSequenceMatchesMapReference) {
  const std::uint64_t seed = GetParam();
  support::Rng rng(seed);

  FlatRing ring;
  MapReference ref;

  // Seed both sides through the bulk path, like world construction.
  constexpr std::size_t kInitial = 1000;
  ring.reserve(kInitial);
  for (std::size_t i = 0; i < kInitial; ++i) {
    const Uint160 id = rng.uniform_u160();
    if (ref.contains(id)) continue;  // (astronomically unlikely)
    const auto owner = static_cast<NodeIndex>(rng.below(32));
    ring.bulk_append(id, owner, false);
    ref.insert(id, owner, false);
  }
  ring.finalize_bulk();

  std::vector<Uint160> members;
  for (const auto& [id, payload] : ref.all()) members.push_back(id);

  auto check_agreement = [&](int step) {
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    ASSERT_TRUE(ring.index_consistent()) << "step " << step;
    // Neighbor and payload agreement from a few random members.
    for (int probe = 0; probe < 8; ++probe) {
      const Uint160& id = members[rng.below(members.size())];
      const FlatRing::Cursor c = ring.find(id);
      ASSERT_EQ(ring.id_at(c), id) << "step " << step;
      ASSERT_EQ(ring.id_at(ring.next(c)), ref.successor(id))
          << "step " << step;
      ASSERT_EQ(ring.id_at(ring.prev(c)), ref.predecessor(id))
          << "step " << step;
      const Slot slot = ring.slot_at(c);
      ASSERT_EQ(ring.owner(slot), ref.payload(id).owner) << "step " << step;
      ASSERT_EQ(ring.is_sybil(slot), ref.payload(id).is_sybil)
          << "step " << step;
    }
    // Point-lookup agreement at arbitrary keys (the task-routing path).
    for (int probe = 0; probe < 8; ++probe) {
      const Uint160 point = rng.uniform_u160();
      ASSERT_EQ(ring.id_at(ring.cover(point)), ref.cover(point))
          << "step " << step;
    }
  };

  check_agreement(-1);
  // Growth phase: joins outnumber leaves 3:1, so the ring ends near
  // 2800 vnodes, more than five full blocks.
  constexpr int kGrowthSteps = 3000;
  for (int step = 0; step < kGrowthSteps; ++step) {
    switch (rng.below(5)) {
      case 0:
      case 1:
      case 2: {  // join at a fresh id
        const Uint160 id = rng.uniform_u160();
        if (ref.contains(id)) break;
        const auto owner = static_cast<NodeIndex>(rng.below(32));
        const bool sybil = rng.below(4) == 0;
        ring.insert(id, owner, sybil);
        ref.insert(id, owner, sybil);
        members.push_back(id);
        break;
      }
      case 3: {  // leave
        if (members.size() <= 2) break;
        const std::size_t victim = rng.below(members.size());
        ring.erase(members[victim]);
        ref.erase(members[victim]);
        members[victim] = members.back();
        members.pop_back();
        break;
      }
      case 4: {  // ownership transfer (e.g. sybil handoff)
        const Uint160& id = members[rng.below(members.size())];
        const auto owner = static_cast<NodeIndex>(rng.below(32));
        ring.set_owner(ring.slot_at(ring.find(id)), owner);
        ref.insert(id, owner, ref.payload(id).is_sybil);
        break;
      }
    }
    check_agreement(step);
  }
  ASSERT_GT(ref.size(), 4 * FlatRing::kBlockCapacity);

  // Contiguous departure: a run of ring-adjacent ids longer than two
  // blocks always contains one whole block, which must empty and drop.
  constexpr std::size_t kRun = 2 * FlatRing::kBlockCapacity;
  Uint160 next_victim = members[rng.below(members.size())];
  for (std::size_t i = 0; i < kRun; ++i) {
    const Uint160 victim = next_victim;
    next_victim = ref.successor(victim);
    ring.erase(victim);
    ref.erase(victim);
    const auto it = std::find(members.begin(), members.end(), victim);
    *it = members.back();
    members.pop_back();
    check_agreement(kGrowthSteps + static_cast<int>(i));
  }

  // Final full-order sweep: for_each must iterate the exact map order.
  std::vector<Uint160> flat_order;
  ring.for_each(
      [&](const Uint160& id, Slot) { flat_order.push_back(id); });
  std::vector<Uint160> map_order;
  for (const auto& [id, payload] : ref.all()) map_order.push_back(id);
  EXPECT_EQ(flat_order, map_order);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatRingDifferentialTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1337, 9001));

}  // namespace
}  // namespace dhtlb::sim
