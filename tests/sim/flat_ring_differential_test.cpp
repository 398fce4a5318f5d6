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
//
// The batch search cover_sorted is pinned the same way, against per-key
// cover() on mutated multi-block rings and on the edge batches its
// bucketing and sweep could get wrong: wrap-around, exact hits, ids
// that share their top bits with the keys, and a one-bucket hotspot.
//
// The cursor mutations insert_at/erase_at are pinned against the map's
// id-keyed insert/erase: the ring and the map take the same mutation
// sequence and must stay entry-for-entry identical, across the wrap
// past the largest id, the removal of a block's last entry (a summary
// update) and block splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/flat_ring.hpp"
#include "sim/flat_ring_testing.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;
using testing::cursor_at_id;
using testing::erase_id;
using testing::holds_id;
using testing::insert_id;

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
  std::vector<Uint160> initial_ids;
  std::vector<NodeIndex> initial_owners;
  for (std::size_t i = 0; i < kInitial; ++i) {
    const Uint160 id = rng.uniform_u160();
    if (ref.contains(id)) continue;  // (astronomically unlikely)
    const auto owner = static_cast<NodeIndex>(rng.below(32));
    initial_ids.push_back(id);
    initial_owners.push_back(owner);
    ref.insert(id, owner, false);
  }
  ASSERT_EQ(ring.bulk_load(initial_ids, initial_owners), initial_ids.size());

  std::vector<Uint160> members;
  for (const auto& [id, payload] : ref.all()) members.push_back(id);

  auto check_agreement = [&](int step) {
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    ASSERT_TRUE(ring.index_consistent()) << "step " << step;
    // Neighbor and payload agreement from a few random members.
    for (int probe = 0; probe < 8; ++probe) {
      const Uint160& id = members[rng.below(members.size())];
      const FlatRing::Cursor c = cursor_at_id(ring, id);
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
  // 2500 vnodes, more than four full blocks.
  constexpr int kGrowthSteps = 3000;
  for (int step = 0; step < kGrowthSteps; ++step) {
    switch (rng.below(4)) {
      case 0:
      case 1:
      case 2: {  // join at a fresh id
        const Uint160 id = rng.uniform_u160();
        if (ref.contains(id)) break;
        const auto owner = static_cast<NodeIndex>(rng.below(32));
        const bool sybil = rng.below(4) == 0;
        insert_id(ring, id, owner, sybil);
        ref.insert(id, owner, sybil);
        members.push_back(id);
        break;
      }
      case 3: {  // leave
        if (members.size() <= 2) break;
        const std::size_t victim = rng.below(members.size());
        erase_id(ring, members[victim]);
        ref.erase(members[victim]);
        members[victim] = members.back();
        members.pop_back();
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
    erase_id(ring, victim);
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

// --- cover_sorted against per-key cover ----------------------------------

/// Resolves `keys` with one cover_sorted call and checks every slot
/// against a point cover() of the same key.
void expect_batch_matches_point_covers(const FlatRing& ring,
                                       const std::vector<Uint160>& keys,
                                       const std::string& what) {
  std::vector<Slot> slots(keys.size(), FlatRing::kNoSlot);
  FlatRing::CoverScratch scratch;
  ring.cover_sorted(keys, slots, scratch);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(slots[i], ring.slot_at(ring.cover(keys[i])))
        << what << ": key " << i << " " << keys[i];
  }
}

/// Key whose top 64 bits are `high` and low 96 bits are `low`.
Uint160 with_high(std::uint64_t high, std::uint64_t low) {
  return Uint160{high}.shl(96) + Uint160{low};
}

/// A multi-block ring: bulk-loaded, then grown by inserts (splitting
/// blocks) and thinned by erases (emptying some), so block sizes are
/// uneven.  Returns the live ids.
std::vector<Uint160> build_mutated_ring(FlatRing& ring, support::Rng& rng) {
  std::map<Uint160, bool> live;
  for (int i = 0; i < 3000; ++i) live[rng.uniform_u160()] = true;
  std::vector<Uint160> initial;
  for (const auto& [id, unused] : live) initial.push_back(id);
  EXPECT_EQ(ring.bulk_load(initial, std::vector<NodeIndex>(initial.size(), 0)),
            initial.size());
  for (int i = 0; i < 2000; ++i) {
    const Uint160 id = rng.uniform_u160();
    if (live.emplace(id, true).second) insert_id(ring, id, 1, true);
  }
  // Erase a contiguous run (whole blocks drop) and a random sprinkle.
  auto it = live.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.below(live.size() / 2)));
  for (std::size_t i = 0; i < 2 * FlatRing::kBlockCapacity; ++i) {
    erase_id(ring, it->first);
    it = live.erase(it);
  }
  for (int i = 0; i < 300; ++i) {
    auto victim = live.begin();
    std::advance(victim,
                 static_cast<std::ptrdiff_t>(rng.below(live.size())));
    erase_id(ring, victim->first);
    live.erase(victim);
  }
  EXPECT_TRUE(ring.index_consistent());
  std::vector<Uint160> ids;
  for (const auto& [id, unused] : live) ids.push_back(id);
  return ids;
}

class CoverSortedDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverSortedDifferentialTest, MutatedRingMatchesPointCovers) {
  support::Rng rng(GetParam());
  FlatRing ring;
  const std::vector<Uint160> ids = build_mutated_ring(ring, rng);
  ASSERT_GT(ring.size(), 4 * FlatRing::kBlockCapacity);

  // Uniform batches from a handful of keys (one bucket) up to many keys
  // per vnode (thousands of buckets).
  for (const std::size_t n : {1u, 7u, 100u, 5000u, 40000u}) {
    std::vector<Uint160> keys;
    for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.uniform_u160());
    expect_batch_matches_point_covers(ring, keys,
                                      "uniform n=" + std::to_string(n));
  }

  // Exact hits and both neighbors of every vnode id, the ring's ends,
  // and a duplicate of each, in a shuffled order.
  std::vector<Uint160> edges = {Uint160::zero(), Uint160::max(),
                                Uint160::zero(), Uint160::max()};
  for (const Uint160& id : ids) {
    edges.push_back(id);
    edges.push_back(id + Uint160{1});
    edges.push_back(id - Uint160{1});
    edges.push_back(id);
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.below(i)]);
  }
  expect_batch_matches_point_covers(ring, edges, "ids, id+-1, ends");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverSortedDifferentialTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1337, 9001));

TEST(CoverSorted, EmptyBatchNeedsNoRing) {
  const FlatRing empty;
  FlatRing::CoverScratch scratch;
  empty.cover_sorted({}, {}, scratch);  // no vnode to cover with: no-op
  FlatRing ring;
  insert_id(ring, with_high(5, 0));
  ring.cover_sorted({}, {}, scratch);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(CoverSorted, OneVnodeRingCoversEveryKey) {
  FlatRing ring;
  const Slot only = insert_id(ring, with_high(1000, 77), 3, false);
  const std::vector<Uint160> keys = {
      Uint160::zero(),   with_high(1000, 76), with_high(1000, 77),
      with_high(1000, 78), Uint160::max(),    with_high(1000, 77)};
  std::vector<Slot> slots(keys.size(), FlatRing::kNoSlot);
  FlatRing::CoverScratch scratch;
  ring.cover_sorted(keys, slots, scratch);
  for (const Slot slot : slots) EXPECT_EQ(slot, only);
}

TEST(CoverSorted, KeysSharingTopBitsSweepInFullKeyOrder) {
  // Ring ids and keys that all share one high64 value, differing only
  // below it: the bucket and prefix bits tie, so only the full-key
  // order can place them.  Plus a second cluster to cross into.
  FlatRing ring;
  constexpr std::uint64_t kHigh = 0x8000000000000000ull;
  for (const std::uint64_t low : {10u, 20u, 30u}) {
    insert_id(ring, with_high(kHigh, low));
    insert_id(ring, with_high(kHigh + 1, low));
  }
  std::vector<Uint160> keys;
  for (std::uint64_t low = 40; low-- > 0;) {  // descending batch order
    keys.push_back(with_high(kHigh, low));
    keys.push_back(with_high(kHigh + 1, low));
  }
  keys.push_back(with_high(kHigh - 1, 5));  // just below the cluster
  expect_batch_matches_point_covers(ring, keys, "shared high64");

  // The same on a multi-block ring, where each of 2000 clusters shares
  // its high64 with batch keys on both sides of every member.
  FlatRing big;
  support::Rng rng(17);
  std::vector<std::uint64_t> highs;
  for (int i = 0; i < 2000; ++i) highs.push_back(rng());
  std::sort(highs.begin(), highs.end());
  highs.erase(std::unique(highs.begin(), highs.end()), highs.end());
  std::vector<Uint160> big_ids;
  for (const std::uint64_t high : highs) {
    big_ids.push_back(with_high(high, 100));
    big_ids.push_back(with_high(high, 200));
  }
  ASSERT_EQ(big.bulk_load(big_ids, std::vector<NodeIndex>(big_ids.size(), 0)),
            big_ids.size());
  std::vector<Uint160> cluster_keys;
  for (const std::uint64_t high : highs) {
    for (const std::uint64_t low : {0u, 99u, 100u, 101u, 150u, 200u, 201u}) {
      cluster_keys.push_back(with_high(high, low));
    }
  }
  for (std::size_t i = cluster_keys.size(); i > 1; --i) {
    std::swap(cluster_keys[i - 1], cluster_keys[rng.below(i)]);
  }
  expect_batch_matches_point_covers(big, cluster_keys, "clusters");
}

TEST(CoverSorted, NarrowHotspotBatchSortsInNLogN) {
  // 10^5 keys inside a 2^100-wide arc share their top 60 bits, so they
  // all land in one bucket.  A quadratic bucket sort would need ~10^9
  // moves here; the std::sort fallback keeps it to milliseconds.
  support::Rng rng(23);
  FlatRing ring;
  const std::vector<Uint160> ids = build_mutated_ring(ring, rng);
  const Uint160 start = ids[ids.size() / 2] - Uint160::pow2(99);
  std::vector<Uint160> keys;
  for (int i = 0; i < 100'000; ++i) {
    keys.push_back(rng.uniform_in_arc(start, start + Uint160::pow2(100)));
  }
  // Ring ids inside the arc, so the sweep has to stop within it.
  for (int i = 0; i < 20; ++i) {
    const Uint160 id = rng.uniform_in_arc(start, start + Uint160::pow2(100));
    if (!holds_id(ring, id)) insert_id(ring, id, 2, true);
  }
  const auto begin = std::chrono::steady_clock::now();
  expect_batch_matches_point_covers(ring, keys, "hotspot");
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// --- insert_at / erase_at against the map's insert / erase ---------------

using Entries = std::vector<std::tuple<Uint160, NodeIndex, bool>>;

/// Every entry of `ring` in ring order, with its slot's payload.
Entries entries_of(const FlatRing& ring) {
  Entries out;
  ring.for_each([&](const Uint160& id, Slot slot) {
    out.emplace_back(id, ring.owner(slot), ring.is_sybil(slot));
  });
  return out;
}

/// Ids of the entries that end their block (the ones the block summary
/// holds), found by walking cursors: next() leaves the block after them.
std::vector<Uint160> block_last_ids(const FlatRing& ring) {
  std::vector<Uint160> ids;
  FlatRing::Cursor c = ring.first();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const FlatRing::Cursor next = ring.next(c);
    if (next.block != c.block) ids.push_back(ring.id_at(c));
    c = next;
  }
  return ids;
}

/// A ring and its map oracle taking the same mutations: `ring` through
/// lower_bound plus insert_at/erase_at, `ref` through its id-keyed
/// insert/erase.
struct TwinRings {
  FlatRing ring;
  MapReference ref;

  /// Starts the oracle from the ring's current entries.
  void sync_reference() {
    ring.for_each([&](const Uint160& id, Slot slot) {
      ref.insert(id, ring.owner(slot), ring.is_sybil(slot));
    });
  }

  void insert(const Uint160& id, NodeIndex owner, bool sybil) {
    const FlatRing::Cursor at = ring.lower_bound(id);
    ASSERT_FALSE(ring.holds(at, id)) << id;
    const Slot slot = ring.insert_at(at, id, owner, sybil);
    ASSERT_EQ(ring.id_of(slot), id);
    ref.insert(id, owner, sybil);
  }

  void erase(const Uint160& id) {
    const FlatRing::Cursor at = ring.lower_bound(id);
    ASSERT_TRUE(ring.holds(at, id)) << id;
    ring.erase_at(at);
    ref.erase(id);
  }

  Uint160 largest() const { return ring.id_at(ring.prev(ring.first())); }

  void expect_identical(const std::string& what) const {
    ASSERT_TRUE(ring.index_consistent()) << what;
    Entries expected;
    for (const auto& [id, payload] : ref.all()) {
      expected.emplace_back(id, payload.owner, payload.is_sybil);
    }
    ASSERT_EQ(entries_of(ring), expected) << what;
  }
};

class CursorMutationDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CursorMutationDifferentialTest, CursorFormsMatchIdForms) {
  TwinRings twins;
  {
    // A multi-block starting ring (bulk load, inserts, erases).
    support::Rng build_rng(GetParam());
    build_mutated_ring(twins.ring, build_rng);
  }
  twins.sync_reference();
  twins.expect_identical("start");
  support::Rng rng(GetParam() * 31 + 5);

  // Splits: 3 * kBlockCapacity inserts into one narrow arc keep landing
  // in the same few blocks, which fill and split again and again.
  const Uint160 base = rng.uniform_u160();
  for (std::size_t i = 0; i < 3 * FlatRing::kBlockCapacity; ++i) {
    const Uint160 id = rng.uniform_in_arc(base, base + Uint160::pow2(120));
    if (twins.ref.contains(id)) continue;
    twins.insert(id, static_cast<NodeIndex>(i % 7), i % 3 == 0);
  }
  twins.expect_identical("narrow-arc splits");

  // The wrap: ids past the largest one take the end cursor and append to
  // the last block, becoming its summary; then the largest ids leave,
  // each a last-entry erase.
  for (int i = 0; i < 40; ++i) {
    const Uint160 top = twins.largest();
    if (top == Uint160::max()) break;
    const Uint160 id = rng.uniform_in_arc(top, Uint160::max());
    ASSERT_TRUE(twins.ring.is_end(twins.ring.lower_bound(id)));
    twins.insert(id, 9, false);
  }
  twins.expect_identical("past the largest id");
  for (int i = 0; i < 60; ++i) {
    twins.erase(twins.largest());
  }
  twins.expect_identical("largest ids erased");

  // Block-last entries: erasing one moves its block's summary down.
  std::vector<Uint160> lasts = block_last_ids(twins.ring);
  ASSERT_GT(lasts.size(), 4u);
  for (std::size_t i = 0; i < lasts.size(); i += 2) twins.erase(lasts[i]);
  twins.expect_identical("block-last erases");

  // Random churn, and below the smallest id (position 0 of block 0).
  std::vector<Uint160> members;
  for (const auto& [id, payload] : twins.ref.all()) members.push_back(id);
  for (int step = 0; step < 2000; ++step) {
    if (rng.below(2) == 0 && members.size() > 2) {
      const std::size_t victim = rng.below(members.size());
      twins.erase(members[victim]);
      members[victim] = members.back();
      members.pop_back();
    } else {
      const Uint160 id = step % 50 == 0
                             ? twins.ring.id_at(twins.ring.first()) -
                                   Uint160{1}
                             : rng.uniform_u160();
      if (twins.ref.contains(id)) continue;
      twins.insert(id, static_cast<NodeIndex>(step % 5), false);
      members.push_back(id);
    }
  }
  twins.expect_identical("churn");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorMutationDifferentialTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1337, 9001));

TEST(CursorMutation, EmptyRingInsertAndEraseAtTheEndCursor) {
  FlatRing ring;
  const Uint160 id = with_high(77, 1);
  const FlatRing::Cursor at = ring.lower_bound(id);
  EXPECT_TRUE(ring.is_end(at));
  EXPECT_FALSE(ring.holds(at, id));
  const Slot slot = ring.insert_at(at, id, 4, true);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.cursor_of(slot), ring.lower_bound(id));
  EXPECT_EQ(ring.owner(slot), 4u);
  EXPECT_TRUE(ring.index_consistent());
  const FlatRing::Cursor again = ring.lower_bound(id);
  EXPECT_TRUE(ring.holds(again, id));
  ring.erase_at(again);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.index_consistent());
}

}  // namespace
}  // namespace dhtlb::sim
