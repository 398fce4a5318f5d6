// Pins World construction: the node IDs and the preallocated task keys
// a seed produces.  Every experiment's numbers follow from this draw
// sequence, so however construction is implemented (batched hashing, one
// bulk ring load that stops at the first repeated id, joins for the rest)
// it must equal the plain model built here: one Sha1::hash_u64(rng()) per
// node in alive order, redrawn on a collision against a std::set, then
// one hash_u64(rng()) per task key, each key owned by the first node id
// at or after it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "hashing/sha1.hpp"
#include "sim/world.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using hashing::Sha1;
using support::Rng;
using support::Uint160;

struct ReferenceWorld {
  std::vector<Uint160> primaries;  // by node index
  // vnode -> its keys in draw order
  std::map<Uint160, std::vector<Uint160>> keys;
};

ReferenceWorld reference(const Params& params, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = params.initial_nodes;
  if (params.heterogeneous) {
    for (std::size_t i = 0; i < 2 * n; ++i) {
      (void)rng.range(1, params.max_sybils);
    }
  }
  ReferenceWorld ref;
  std::set<Uint160> placed;
  for (std::size_t i = 0; i < n; ++i) {
    Uint160 id = Sha1::hash_u64(rng());
    while (!placed.insert(id).second) id = Sha1::hash_u64(rng());
    ref.primaries.push_back(id);
    ref.keys[id];
  }
  if (params.provisioning == TaskProvisioning::kStreamed) return ref;
  for (std::uint64_t t = 0; t < params.total_tasks; ++t) {
    const Uint160 key = Sha1::hash_u64(rng());
    auto owner = ref.keys.lower_bound(key);
    if (owner == ref.keys.end()) owner = ref.keys.begin();
    owner->second.push_back(key);
  }
  return ref;
}

Params construction_params(std::size_t nodes, TaskProvisioning provisioning,
                           bool heterogeneous) {
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = 4099;  // not a multiple of any batch width
  p.provisioning = provisioning;
  p.heterogeneous = heterogeneous;
  return p;
}

class WorldConstruction
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, TaskProvisioning, std::uint64_t>> {};

TEST_P(WorldConstruction, MatchesSequentialHashingWithSetRedraw) {
  const auto [nodes, provisioning, seed] = GetParam();
  const Params params = construction_params(nodes, provisioning,
                                            /*heterogeneous=*/seed % 2 == 1);
  const ReferenceWorld ref = reference(params, seed);
  Rng rng(seed);
  const World world(params, rng);

  std::vector<Uint160> sorted;
  for (const auto& [id, keys] : ref.keys) sorted.push_back(id);
  ASSERT_EQ(world.ring_ids(), sorted);
  ASSERT_EQ(world.alive_count(), nodes);
  for (NodeIndex idx = 0; idx < nodes; ++idx) {
    EXPECT_EQ(world.vnode_id(world.primary_slot(idx)), ref.primaries[idx])
        << "node " << idx;
  }
  // The ring's ids equal the reference's, so the sweep visits the
  // reference's vnodes in its (ascending) order.
  auto expected = ref.keys.begin();
  world.for_each_arc([&](const ArcView& arc) {
    EXPECT_EQ(world.vnode_keys(arc.slot), expected->second)
        << "vnode " << arc.id;
    ++expected;
  });
}

INSTANTIATE_TEST_SUITE_P(
    SizesModesSeeds, WorldConstruction,
    ::testing::Combine(::testing::Values(1, 2, 15, 16, 17, 33, 1000),
                       ::testing::Values(TaskProvisioning::kPreallocated,
                                         TaskProvisioning::kStreamed),
                       ::testing::Values(1, 42, 20260419)));

// Digest of a world's ring ids followed by every vnode's keys in ring
// order: one number that changes if any id, key or assignment does.
std::string construction_digest(const World& world) {
  Sha1 h;
  const auto absorb = [&h](const Uint160& v) {
    const auto bytes = v.to_bytes();
    h.update(std::span<const std::uint8_t>(bytes));
  };
  world.for_each_arc([&](const ArcView& arc) {
    absorb(arc.id);
    for (const Uint160& key : world.vnode_keys(arc.slot)) absorb(key);
  });
  return Sha1::to_hex(h.finish());
}

TEST(WorldConstructionPin, DigestsArePinned) {
  Rng pre_rng(7);
  const World pre(construction_params(1000, TaskProvisioning::kPreallocated,
                                      /*heterogeneous=*/true),
                  pre_rng);
  EXPECT_EQ(construction_digest(pre),
            "b2434af945b2a8456b757e06e8106a0103566a9b");
  Rng streamed_rng(7);
  const World streamed(
      construction_params(1000, TaskProvisioning::kStreamed,
                          /*heterogeneous=*/false),
      streamed_rng);
  EXPECT_EQ(construction_digest(streamed),
            "e1bce1dcab4ec00e22abe5ac4b54c8ac73facd7d");
  // The construction stream continues where the world left it.
  EXPECT_EQ(pre_rng(), 863473266666895526u);
  EXPECT_EQ(streamed_rng(), 3301002798311131737u);
}

}  // namespace
}  // namespace dhtlb::sim
