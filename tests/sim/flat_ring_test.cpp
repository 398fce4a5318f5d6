// FlatRing unit coverage: the blocked sorted-index + slot-arena container
// that replaced the std::map ring.  Exercises both write paths (bulk load
// and churn), the bulk load's stop at the first repeated id, block splits at capacity and drops when emptied, cursor
// walks across block boundaries with wrap-around, cover semantics, and
// the deep index_consistent() check the invariant auditor relies on.
#include "sim/flat_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

#include "sim/flat_ring_testing.hpp"
#include "sim/world_corruptor.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {
namespace {

using support::Uint160;
using testing::cursor_at_id;
using testing::erase_id;
using testing::holds_id;
using testing::insert_id;

Uint160 id(std::uint64_t v) { return Uint160{v}; }

constexpr std::size_t kCapacity = FlatRing::kBlockCapacity;

/// Id with v in the top 64 bits, spread over the ring so that the
/// interpolated searches (which read the high bits) are exercised.
Uint160 spread(std::uint64_t v) { return Uint160{v}.shl(96); }

/// spread(first), spread(first + stride), ... — n ids.
std::vector<Uint160> spread_ids(std::size_t n, std::uint64_t first,
                                std::uint64_t stride = 1) {
  std::vector<Uint160> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(spread(first + i * stride));
  return out;
}

/// Ring bulk-loaded with the given (distinct) ids.
FlatRing make_ring(const std::vector<Uint160>& ids) {
  std::vector<NodeIndex> owners;
  for (const Uint160& v : ids) {
    owners.push_back(static_cast<NodeIndex>(v.low64() % 7));
  }
  FlatRing ring;
  EXPECT_EQ(ring.bulk_load(ids, owners), ids.size());
  return ring;
}

/// Same, from low-64 ids.
FlatRing make_ring(std::initializer_list<std::uint64_t> ids) {
  std::vector<Uint160> wide;
  for (const std::uint64_t v : ids) wide.push_back(id(v));
  return make_ring(wide);
}

/// All live ids in iteration order, via for_each.
std::vector<Uint160> collect(const FlatRing& ring) {
  std::vector<Uint160> out;
  ring.for_each([&](const Uint160& vid, Slot) { out.push_back(vid); });
  return out;
}

TEST(FlatRingTest, EmptyRingHasNoMembers) {
  FlatRing ring;
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(holds_id(ring, id(1)));
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, BulkLoadSortsOnceAndAnswersQueries) {
  // Deliberately unsorted append order.
  FlatRing ring = make_ring({50, 10, 40, 20, 30});
  EXPECT_EQ(ring.size(), 5u);
  const std::vector<Uint160> expected = {id(10), id(20), id(30), id(40),
                                         id(50)};
  EXPECT_EQ(collect(ring), expected);
  EXPECT_TRUE(holds_id(ring, id(30)));
  EXPECT_FALSE(holds_id(ring, id(31)));
  EXPECT_TRUE(ring.index_consistent());
}

/// Key whose top 64 bits are `high` and low 96 bits are `low`.
Uint160 with_high(std::uint64_t high, std::uint64_t low) {
  return Uint160{high}.shl(96) + Uint160{low};
}

TEST(FlatRingTest, BulkLoadKeepsTheLongestRepeatFreePrefix) {
  const Uint160 a = spread(1);
  const Uint160 b = spread(2);
  const Uint160 c = spread(3);
  const Uint160 d = spread(4);
  const Uint160 e = spread(5);
  // 40 ids in one sort bucket (over the insertion-sort limit), all with
  // the same top 64 bits: ids[25] repeats ids[7], ids[39] repeats ids[2].
  std::vector<Uint160> shared_high;
  for (std::uint64_t low = 0; low < 40; ++low) {
    shared_high.push_back(with_high(77, (low * 23) % 40));
  }
  shared_high[25] = shared_high[7];
  shared_high[39] = shared_high[2];
  // Equal low 64 bits, different high bits.
  const Uint160 low_a({1, 0, 0, 0xDEAD, 0xBEEF});
  const Uint160 low_b({2, 0, 0, 0xDEAD, 0xBEEF});
  ASSERT_EQ(low_a.low64(), low_b.low64());

  const struct {
    const char* name;
    std::vector<Uint160> ids;
    std::size_t k;
  } cases[] = {
      {"no repeat", {c, a, e, b, d}, 5},
      {"repeat at index 1", {b, b, a, c}, 1},
      {"repeat in the middle", {a, d, b, d, e, c}, 3},
      {"repeat at the last index", {d, a, c, b, a}, 4},
      {"three-way repeat", {c, b, a, b, d, b}, 3},
      {"later run repeats first", {a, e, e, a, b}, 2},
      {"shared top 64 bits",
       {with_high(9, 3), with_high(9, 1), with_high(9, 2), with_high(9, 1)},
       3},
      {"40 ids sharing top 64 bits", shared_high, 25},
      {"shared low 64 bits only", {low_a, low_b, c, low_a, low_b}, 3},
      {"empty", {}, 0},
  };
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    std::vector<NodeIndex> owners;
    for (std::size_t i = 0; i < tc.ids.size(); ++i) {
      owners.push_back(static_cast<NodeIndex>(100 + i));
    }
    FlatRing ring;
    ASSERT_EQ(ring.bulk_load(tc.ids, owners), tc.k);
    EXPECT_EQ(ring.size(), tc.k);
    for (Slot s = 0; s < tc.k; ++s) {
      EXPECT_EQ(ring.id_of(s), tc.ids[s]) << "slot " << s;
      EXPECT_EQ(ring.owner(s), owners[s]) << "slot " << s;
      EXPECT_FALSE(ring.is_sybil(s)) << "slot " << s;
    }
    EXPECT_TRUE(ring.index_consistent());
    std::vector<Uint160> prefix(tc.ids.begin(),
                                tc.ids.begin() +
                                    static_cast<std::ptrdiff_t>(tc.k));
    std::sort(prefix.begin(), prefix.end());
    EXPECT_EQ(collect(ring), prefix);
  }
}

TEST(FlatRingDeathTest, BulkLoadIntoANonEmptyRingFails) {
  const std::vector<Uint160> ids = {id(30)};
  const std::vector<NodeIndex> owners = {0};
  FlatRing ring = make_ring({10, 20});
  EXPECT_DEATH((void)ring.bulk_load(ids, owners),
               "bulk_load into a ring that has held vnodes");
  // Emptied by erases, the ring still holds freed slots, so slot i could
  // not hold ids[i].
  erase_id(ring, id(10));
  erase_id(ring, id(20));
  ASSERT_TRUE(ring.empty());
  EXPECT_DEATH((void)ring.bulk_load(ids, owners),
               "bulk_load into a ring that has held vnodes");
  FlatRing fresh;
  EXPECT_DEATH((void)fresh.bulk_load(ids, std::vector<NodeIndex>{0, 1}),
               "bulk_load: 2 owners for 1 ids");
}

TEST(FlatRingTest, SlotAccessorsRoundTripPayload) {
  FlatRing ring;
  const Slot a = insert_id(ring, id(5), /*owner=*/3, /*is_sybil=*/false);
  const Slot b = insert_id(ring, id(9), /*owner=*/4, /*is_sybil=*/true);
  EXPECT_EQ(ring.id_of(a), id(5));
  EXPECT_EQ(ring.owner(a), 3u);
  EXPECT_FALSE(ring.is_sybil(a));
  EXPECT_TRUE(ring.is_sybil(b));
  ring.tasks(a).add(id(1000));
  EXPECT_EQ(ring.tasks(a).size(), 1u);
}

TEST(FlatRingTest, LiveMarksTrackASlotsLifetime) {
  FlatRing ring;
  EXPECT_TRUE(ring.live_marks().empty()) << "empty ring, empty arena";
  const Slot a = insert_id(ring, id(5), 0, false);
  const Slot b = insert_id(ring, id(9), 0, false);
  const Slot keep = insert_id(ring, id(20), 0, false);
  std::vector<std::uint8_t> marks = ring.live_marks();
  ASSERT_EQ(marks.size(), keep + 1) << "slots past the arena are not live";
  EXPECT_NE(marks[a], 0);
  EXPECT_NE(marks[b], 0);
  EXPECT_NE(marks[keep], 0);
  erase_id(ring, id(5));
  erase_id(ring, id(9));
  marks = ring.live_marks();
  EXPECT_EQ(marks[a], 0) << "freed slot";
  EXPECT_EQ(marks[b], 0) << "freed slot";
  EXPECT_NE(marks[keep], 0);
  // Re-inserting id 5 recycles b (the most recently freed slot): a still
  // stores id 5, but the index maps id 5 to b, so a stays dead.
  EXPECT_EQ(insert_id(ring, id(5), 0, false), b);
  marks = ring.live_marks();
  EXPECT_NE(marks[b], 0);
  EXPECT_EQ(marks[a], 0);
}

TEST(FlatRingTest, CursorOfResolvesEveryLiveSlot) {
  FlatRing ring = make_ring(spread_ids(3 * kCapacity / 2, 0));  // 3 blocks
  insert_id(ring, spread(1) + Uint160{1});  // one slot from the churn path
  ring.for_each([&](const Uint160& vid, Slot s) {
    EXPECT_EQ(ring.cursor_of(s), cursor_at_id(ring, vid)) << vid;
  });
}

TEST(FlatRingDeathTest, CursorOfRejectsFreedAndOutOfRangeSlots) {
  FlatRing ring = make_ring({10, 20, 30});
  const Slot freed = ring.slot_at(cursor_at_id(ring, id(20)));
  erase_id(ring, id(20));
  // The freed slot still stores id 20, which no index entry holds.
  EXPECT_DEATH((void)ring.cursor_of(freed), "cursor_of: slot .* no vnode");
  EXPECT_DEATH((void)ring.cursor_of(3), "cursor_of: slot 3 is past");
}

TEST(FlatRingTest, LiveMarksSkipSlotsTheIndexDoesNotHold) {
  FlatRing ring;
  const Slot a = insert_id(ring, id(5), 0, false);
  const Slot b = insert_id(ring, id(9), 0, false);
  const Slot c = insert_id(ring, id(20), 0, false);
  erase_id(ring, id(5));
  erase_id(ring, id(9));
  insert_id(ring, id(5), 0, false);  // recycles b; a still stores id 5
  std::vector<std::uint8_t> marks = ring.live_marks();
  ASSERT_EQ(marks.size(), 3u) << "recycled slot";
  EXPECT_EQ(marks[a], 0) << "a stores id 5, indexed under b";
  EXPECT_NE(marks[b], 0);
  EXPECT_NE(marks[c], 0);
  // An index entry whose slot stores a different id marks nothing: b now
  // stores id 6 while the index still maps id 5 to it.
  ASSERT_TRUE(testing::FlatRingCorruptor::desync_arena_id(ring));
  marks = ring.live_marks();
  ASSERT_EQ(marks.size(), 3u) << "desynced arena id";
  EXPECT_EQ(marks[a], 0);
  EXPECT_EQ(marks[b], 0) << "desynced arena id";
  EXPECT_NE(marks[c], 0);
}

TEST(FlatRingTest, SlotsStayValidAcrossUnrelatedMutations) {
  // The replacement for the old "map value pointers never move"
  // contract: a cached Slot must survive inserts, erases, and the block
  // splits and drops they trigger.
  FlatRing ring = make_ring({100});
  const Slot cached = ring.slot_at(cursor_at_id(ring, id(100)));
  ring.tasks(cached).add(id(7777));
  for (std::uint64_t v = 0; v < 64; ++v) {
    insert_id(ring, id(v), 0, false);
  }
  for (std::uint64_t v = 0; v < 64; v += 2) {
    erase_id(ring, id(v));
  }
  EXPECT_EQ(ring.id_of(cached), id(100));
  EXPECT_EQ(ring.tasks(cached).size(), 1u);
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, InsertSplitsFullBlockInHalf) {
  // The bulk path fills blocks to half capacity; inserts then fill the
  // one block until it reaches capacity and splits into two halves.
  const std::size_t half = kCapacity / 2;
  FlatRing ring = make_ring(spread_ids(half, 0, /*stride=*/2));
  for (std::uint64_t i = 0; i + 1 < half; ++i) {
    insert_id(ring, spread(2 * i + 1), 0, false);  // odd ids fill the gaps
  }
  ASSERT_EQ(ring.size(), kCapacity - 1);
  // Still one block.
  EXPECT_EQ(cursor_at_id(ring, spread(2 * half - 2)).block, 0u);
  EXPECT_TRUE(ring.index_consistent());

  insert_id(ring, spread(2 * half - 1), 0, false);  // the capacity-th entry
  const std::vector<Uint160> order = collect(ring);
  ASSERT_EQ(order.size(), kCapacity);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const FlatRing::Cursor c = cursor_at_id(ring, order[i]);
    EXPECT_EQ(c.block, i / half) << "entry " << i;
    EXPECT_EQ(c.pos, i % half) << "entry " << i;
  }
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, EraseThatEmptiesABlockDropsIt) {
  // Two half-full blocks; erasing all of the first leaves one block,
  // and the survivors move up to block 0.
  const std::size_t half = kCapacity / 2;
  FlatRing ring = make_ring(spread_ids(2 * half, 0));
  ASSERT_EQ(cursor_at_id(ring, spread(half)).block, 1u);
  for (std::uint64_t i = 0; i < half; ++i) erase_id(ring, spread(i));
  EXPECT_EQ(ring.size(), half);
  EXPECT_FALSE(holds_id(ring, spread(0)));
  const FlatRing::Cursor c = cursor_at_id(ring, spread(half));
  EXPECT_EQ(c.block, 0u);
  EXPECT_EQ(c.pos, 0u);
  EXPECT_EQ(ring.id_at(ring.prev(c)), spread(2 * half - 1));  // wraps
  EXPECT_EQ(ring.id_at(ring.cover(spread(0))), spread(half));
  EXPECT_TRUE(ring.index_consistent());

  // Emptying the last block too leaves an empty, consistent ring that
  // takes inserts again.
  for (std::uint64_t i = half; i < 2 * half; ++i) erase_id(ring, spread(i));
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.index_consistent());
  insert_id(ring, spread(5), 0, false);
  EXPECT_EQ(ring.id_at(ring.cover(spread(9))), spread(5));
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, NextAndPrevCrossBlockBoundariesAndWrap) {
  const std::size_t half = kCapacity / 2;
  FlatRing ring = make_ring(spread_ids(3 * half, 0));  // three blocks
  const FlatRing::Cursor end_of_first = cursor_at_id(ring, spread(half - 1));
  ASSERT_EQ(end_of_first.block, 0u);
  const FlatRing::Cursor start_of_second = ring.next(end_of_first);
  EXPECT_EQ(start_of_second.block, 1u);
  EXPECT_EQ(start_of_second.pos, 0u);
  EXPECT_EQ(ring.id_at(start_of_second), spread(half));
  EXPECT_EQ(ring.id_at(ring.prev(start_of_second)), spread(half - 1));

  const FlatRing::Cursor top = cursor_at_id(ring, spread(3 * half - 1));
  EXPECT_EQ(top.block, 2u);
  EXPECT_EQ(ring.id_at(ring.next(top)), spread(0));  // wraps clockwise
  EXPECT_EQ(ring.id_at(ring.prev(ring.first())), spread(3 * half - 1));

  // A full lap each way visits every id once, in order.
  const std::vector<Uint160> order = collect(ring);
  FlatRing::Cursor c = ring.first();
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(ring.id_at(c), order[i]) << "forward " << i;
    c = ring.next(c);
  }
  EXPECT_EQ(ring.id_at(c), order.front());
  for (std::size_t i = order.size(); i-- > 0;) {
    c = ring.prev(c);
    ASSERT_EQ(ring.id_at(c), order[i]) << "backward " << i;
  }
}

TEST(FlatRingTest, CoverLandsOnBlockFirstEntryAndWrapsPastLastBlock) {
  // Even ids only, so every odd point falls strictly between two vnodes.
  const std::size_t half = kCapacity / 2;
  FlatRing ring = make_ring(spread_ids(2 * half, 0, /*stride=*/2));
  // Between block 0's max and block 1's first entry: block 1, pos 0.
  const FlatRing::Cursor c = ring.cover(spread(2 * half - 1));
  EXPECT_EQ(c.block, 1u);
  EXPECT_EQ(c.pos, 0u);
  EXPECT_EQ(ring.id_at(c), spread(2 * half));
  // Past the last block's max: wraps to the first entry.
  const FlatRing::Cursor wrapped = ring.cover(spread(4 * half - 1));
  EXPECT_EQ(wrapped.block, 0u);
  EXPECT_EQ(wrapped.pos, 0u);
  EXPECT_EQ(ring.id_at(ring.cover(Uint160::max())), spread(0));
}

TEST(FlatRingTest, SlotsStayStableAcrossBlockSplits) {
  // Grow one half-full block through several splits and check every
  // cached slot still names its vnode and payload.
  const std::size_t half = kCapacity / 2;
  FlatRing ring = make_ring(spread_ids(half, 0, /*stride=*/8));
  std::vector<std::pair<Uint160, Slot>> cached;
  ring.for_each([&](const Uint160& vid, Slot s) {
    ring.tasks(s).add(vid);
    cached.emplace_back(vid, s);
  });
  for (std::uint64_t i = 0; i < 8 * half; ++i) {
    if (i % 8 != 0) insert_id(ring, spread(i), 0, false);
  }
  // Split repeatedly.
  EXPECT_GT(cursor_at_id(ring, spread(8 * half - 1)).block, 2u);
  for (const auto& [vid, s] : cached) {
    EXPECT_EQ(ring.id_of(s), vid);
    EXPECT_EQ(ring.cursor_of(s), cursor_at_id(ring, vid));
    ASSERT_EQ(ring.tasks(s).size(), 1u);
  }
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, ArenaGrowthNeverMovesAPayload) {
  // References to early slots' ids and stores survive inserts that
  // allocate several more arena pages.
  constexpr std::size_t kEarly = 16;
  FlatRing ring = make_ring(spread_ids(kEarly, 0, /*stride=*/kEarly));
  std::vector<Slot> slots;
  ring.for_each([&](const Uint160&, Slot s) { slots.push_back(s); });
  std::vector<const Uint160*> ids;
  std::vector<const TaskStore*> stores;
  for (const Slot s : slots) {
    ring.tasks(s).add(ring.id_of(s));
    ids.push_back(&ring.id_of(s));
    stores.push_back(&ring.tasks(s));
  }
  const std::size_t target = 4 * FlatRing::kPageSlots + 1;
  for (std::uint64_t v = 1; ring.size() < target; ++v) {
    if (v % kEarly != 0) insert_id(ring, spread(v), 0, false);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(&ring.id_of(slots[i]), ids[i]) << "slot " << slots[i];
    EXPECT_EQ(&ring.tasks(slots[i]), stores[i]) << "slot " << slots[i];
    EXPECT_EQ(ring.tasks(slots[i]).keys().front(), ring.id_of(slots[i]));
  }
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, CopiedRingOwnsItsArena) {
  // A copy spans the same pages' worth of slots with its own payloads:
  // the original's later mutations do not show through it.
  FlatRing ring = make_ring(spread_ids(FlatRing::kPageSlots + 3, 0));
  const Slot s = ring.slot_at(ring.first());
  ring.tasks(s).add(Uint160{7});
  const FlatRing copy = ring;
  ring.tasks(s).add(Uint160{8});
  EXPECT_EQ(copy.tasks(s).size(), 1u);
  EXPECT_NE(&copy.tasks(s), &ring.tasks(s));
  EXPECT_EQ(collect(copy), collect(ring));
  EXPECT_TRUE(copy.index_consistent());
  FlatRing moved = std::move(ring);
  EXPECT_EQ(moved.tasks(s).size(), 2u);
  EXPECT_TRUE(moved.index_consistent());
}

TEST(FlatRingTest, SustainedChurnSplitsBlocksAndRecyclesSlots) {
  FlatRing ring = make_ring({1, 2, 3});
  support::Rng rng(99);
  std::set<std::uint64_t> alive = {1, 2, 3};
  std::uint64_t fresh = 4;
  // Insert-biased (2:1) so the ring grows through several block splits
  // while erases recycle slots.
  for (int round = 0; round < 3000; ++round) {
    if (rng.below(3) == 0 && alive.size() > 1) {
      auto it = alive.begin();
      std::advance(it, static_cast<long>(rng.below(alive.size())));
      erase_id(ring, id(*it));
      alive.erase(it);
    } else {
      insert_id(ring, id(fresh), 0, false);
      alive.insert(fresh++);
    }
  }
  EXPECT_GT(cursor_at_id(ring, id(*alive.rbegin())).block, 0u);
  EXPECT_EQ(ring.size(), alive.size());
  std::vector<Uint160> expected;
  for (const std::uint64_t v : alive) expected.push_back(id(v));
  EXPECT_EQ(collect(ring), expected);
  EXPECT_TRUE(ring.index_consistent());
}

TEST(FlatRingTest, CursorWalksWrapBothDirections) {
  FlatRing ring = make_ring({10, 20, 30});
  insert_id(ring, id(25), 0, false);  // one inserted entry in the middle
  const std::vector<Uint160> order = {id(10), id(20), id(25), id(30)};

  FlatRing::Cursor c = ring.first();
  for (std::size_t lap = 0; lap < 2 * order.size(); ++lap) {
    EXPECT_EQ(ring.id_at(c), order[lap % order.size()]) << "lap " << lap;
    c = ring.next(c);
  }
  c = ring.first();
  for (std::size_t back = 2 * order.size(); back-- > 0;) {
    c = ring.prev(c);
    EXPECT_EQ(ring.id_at(c), order[back % order.size()]) << "back " << back;
  }
}

TEST(FlatRingTest, CoverReturnsFirstClockwiseOwnerWithWrap) {
  FlatRing ring = make_ring({10, 20, 30});
  EXPECT_EQ(ring.id_at(ring.cover(id(10))), id(10));  // exact hit
  EXPECT_EQ(ring.id_at(ring.cover(id(11))), id(20));  // next clockwise
  EXPECT_EQ(ring.id_at(ring.cover(id(0))), id(10));
  EXPECT_EQ(ring.id_at(ring.cover(id(31))), id(10));  // wraps past top
  EXPECT_EQ(ring.id_at(ring.cover(Uint160::max())), id(10));
}

TEST(FlatRingTest, IndexConsistentPinsArenaDesync) {
  FlatRing ring = make_ring({10, 20, 30});
  ASSERT_TRUE(ring.index_consistent());
  ASSERT_TRUE(sim::testing::FlatRingCorruptor::desync_arena_id(ring));
  EXPECT_FALSE(ring.index_consistent());
}

TEST(FlatRingTest, IndexConsistentPinsStaleBlockSummary) {
  FlatRing ring = make_ring(spread_ids(2 * kCapacity, 0));
  ASSERT_TRUE(ring.index_consistent());
  ASSERT_TRUE(sim::testing::FlatRingCorruptor::stale_block_summary(ring));
  EXPECT_FALSE(ring.index_consistent());
}

TEST(FlatRingTest, InterpolatedSearchMatchesPlainSearchAtScale) {
  // Both search levels (block summary, then position in the block)
  // probe from interpolated estimates once they hold enough entries;
  // lower_bound/cover answers must stay identical to the brute-force ordering
  // for ids anywhere in the 160-bit space, including the skewed high bits
  // interpolation estimates from.  Inserts after the bulk load split
  // blocks unevenly, so the estimates are off by more than one block.
  support::Rng rng(4242);
  std::vector<Uint160> ids;
  for (int i = 0; i < 12000; ++i) ids.push_back(rng.uniform_u160());
  FlatRing ring;
  ASSERT_EQ(ring.bulk_load(ids, std::vector<NodeIndex>(ids.size(), 0)),
            ids.size());
  for (int i = 0; i < 8000; ++i) {
    // Skewed toward the low quarter of the ring.
    const Uint160 vid = rng.uniform_u160().shr(i % 2 == 0 ? 2 : 0);
    ids.push_back(vid);
    insert_id(ring, vid, 0, false);
  }
  ASSERT_TRUE(ring.index_consistent());
  std::sort(ids.begin(), ids.end());
  for (int probe = 0; probe < 2000; ++probe) {
    const Uint160 point = rng.uniform_u160();
    auto it = std::lower_bound(ids.begin(), ids.end(), point);
    const Uint160 expected = it == ids.end() ? ids.front() : *it;
    EXPECT_EQ(ring.id_at(ring.cover(point)), expected);
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Uint160& member = ids[rng.below(ids.size())];
    EXPECT_EQ(ring.id_at(cursor_at_id(ring, member)), member);
  }
}

}  // namespace
}  // namespace dhtlb::sim
