#include "sim/task_store.hpp"

#include <gtest/gtest.h>

#include <set>

#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using support::Rng;
using support::Uint160;

TEST(TaskStore, StartsEmpty) {
  TaskStore s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

TEST(TaskStore, AddAndSize) {
  TaskStore s;
  s.add(Uint160{1});
  s.add(Uint160{2});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.empty());
}

TEST(TaskStore, ConsumeRandomRemovesExactlyOne) {
  TaskStore s;
  std::set<Uint160> keys;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Uint160 k = rng.uniform_u160();
    s.add(k);
    keys.insert(k);
  }
  while (!s.empty()) {
    const Uint160 taken = s.consume_random(rng);
    EXPECT_TRUE(keys.erase(taken) == 1) << "consumed key was present once";
  }
  EXPECT_TRUE(keys.empty());
}

TEST(TaskStore, ConsumeRandomIsRoughlyUniform) {
  // Put 10 known keys in; consume the first key repeatedly over many
  // rebuilds and check each key is picked about equally often.
  Rng rng(2);
  std::map<Uint160, int> picks;
  constexpr int kTrials = 5000;
  for (int t = 0; t < kTrials; ++t) {
    TaskStore s;
    for (std::uint64_t k = 0; k < 10; ++k) s.add(Uint160{k});
    ++picks[s.consume_random(rng)];
  }
  for (const auto& [key, count] : picks) {
    EXPECT_NEAR(count, kTrials / 10, 150) << key;
  }
}

TEST(TaskStore, SplitSimpleArc) {
  TaskStore s, out;
  for (std::uint64_t k = 1; k <= 10; ++k) s.add(Uint160{k * 10});
  // Arc (25, 65]: keys 30,40,50,60 move.
  const auto moved = s.split_arc_into(Uint160{25}, Uint160{65}, out);
  EXPECT_EQ(moved, 4u);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(s.size(), 6u);
  for (const auto& k : out.keys()) {
    EXPECT_TRUE(support::in_half_open_arc(k, Uint160{25}, Uint160{65}));
  }
  for (const auto& k : s.keys()) {
    EXPECT_FALSE(support::in_half_open_arc(k, Uint160{25}, Uint160{65}));
  }
}

TEST(TaskStore, SplitIncludesUpperEndpointExcludesLower) {
  TaskStore s, out;
  s.add(Uint160{25});
  s.add(Uint160{65});
  s.split_arc_into(Uint160{25}, Uint160{65}, out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.keys()[0], Uint160{65});
  EXPECT_EQ(s.keys()[0], Uint160{25});
}

TEST(TaskStore, SplitWrappingArc) {
  TaskStore s, out;
  const Uint160 near_top = Uint160::max() - Uint160{5};
  s.add(near_top);          // inside (max-10, 20]
  s.add(Uint160{10});       // inside
  s.add(Uint160{100});      // outside
  const Uint160 lo = Uint160::max() - Uint160{10};
  const auto moved = s.split_arc_into(lo, Uint160{20}, out);
  EXPECT_EQ(moved, 2u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.keys()[0], Uint160{100});
}

TEST(TaskStore, SplitEmptyArcMovesNothing) {
  TaskStore s, out;
  s.add(Uint160{500});
  EXPECT_EQ(s.split_arc_into(Uint160{10}, Uint160{20}, out), 0u);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(out.empty());
}

TEST(TaskStore, SplitAppendsToNonEmptyDestination) {
  TaskStore s, out;
  out.add(Uint160{1});
  s.add(Uint160{15});
  s.split_arc_into(Uint160{10}, Uint160{20}, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(TaskStore, MergeMovesEverything) {
  TaskStore a, b;
  a.add(Uint160{1});
  b.add(Uint160{2});
  b.add(Uint160{3});
  EXPECT_EQ(a.merge_from(b), 2u);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST(TaskStore, SplitThenMergeConservesKeys) {
  Rng rng(3);
  TaskStore s;
  std::multiset<Uint160> original;
  for (int i = 0; i < 500; ++i) {
    const Uint160 k = rng.uniform_u160();
    s.add(k);
    original.insert(k);
  }
  TaskStore out;
  s.split_arc_into(rng.uniform_u160(), rng.uniform_u160(), out);
  s.merge_from(out);
  std::multiset<Uint160> after(s.keys().begin(), s.keys().end());
  EXPECT_EQ(after, original);
}

TEST(TaskStore, RepeatedSplitsPartitionWithoutLoss) {
  // Property: splitting the same store at several nested boundaries
  // never loses or duplicates a key.
  Rng rng(4);
  TaskStore s;
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) s.add(rng.uniform_u160());
  std::vector<TaskStore> parts(4);
  // Quarter boundaries.
  const Uint160 q1 = Uint160::pow2(158);
  const Uint160 q2 = Uint160::pow2(159);
  const Uint160 q3 = q1 + q2;
  s.split_arc_into(Uint160::zero(), q1, parts[0]);
  s.split_arc_into(q1, q2, parts[1]);
  s.split_arc_into(q2, q3, parts[2]);
  std::uint64_t total = s.size();
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kKeys));
}

TEST(TaskStore, SplitShrinksASourceLeftBelowAQuarter) {
  TaskStore s, out;
  for (std::uint64_t k = 1; k <= 100; ++k) s.add(Uint160{k});
  const std::size_t capacity = s.keys().capacity();
  // (0, 80] moves 80 keys: the 20 left are at most a quarter of 100.
  ASSERT_EQ(s.split_arc_into(Uint160{0}, Uint160{80}, out), 80u);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(s.keys().capacity(), 20u) << "shrunk to fit from " << capacity;
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(s.keys()[k], Uint160{81 + k}) << "key order kept";
  }
}

TEST(TaskStore, SplitKeepsCapacityAboveAQuarter) {
  TaskStore s, out;
  s.reserve(100);
  for (std::uint64_t k = 1; k <= 100; ++k) s.add(Uint160{k});
  // 26 keys stay: more than a quarter of the capacity.
  ASSERT_EQ(s.split_arc_into(Uint160{0}, Uint160{74}, out), 74u);
  EXPECT_EQ(s.keys().capacity(), 100u);
}

TEST(TaskStore, SplitThatEmptiesTheSourceReleasesItsBuffer) {
  TaskStore s, out;
  for (std::uint64_t k = 1; k <= 50; ++k) s.add(Uint160{k});
  ASSERT_EQ(s.split_arc_into(Uint160{0}, Uint160{50}, out), 50u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.keys().capacity(), 0u);
  EXPECT_EQ(out.size(), 50u);
}

// The split loop as it stood before the capacity rule: a stable
// compaction of the kept keys, the moved keys appended in store order.
void reference_split(std::vector<Uint160>& keys, const Uint160& lo,
                     const Uint160& hi, std::vector<Uint160>& out) {
  std::size_t write = 0;
  for (std::size_t read = 0; read < keys.size(); ++read) {
    if (support::in_half_open_arc(keys[read], lo, hi)) {
      out.push_back(keys[read]);
    } else {
      keys[write++] = keys[read];
    }
  }
  keys.resize(write);
}

TEST(TaskStore, SplitKeepsKeyOrderOnBothSides) {
  // Random stores and arcs, wrapping ones included, against the
  // reference loop: the capacity rule changes no key's position.
  Rng rng(5);
  int wrapping = 0;
  for (int trial = 0; trial < 200; ++trial) {
    TaskStore s, out;
    std::vector<Uint160> ref_keys, ref_out;
    const auto prefill = rng.below(4);
    for (std::uint64_t i = 0; i < prefill; ++i) {
      const Uint160 k = rng.uniform_u160();
      out.add(k);
      ref_out.push_back(k);
    }
    const auto n = rng.below(300);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Uint160 k = rng.uniform_u160();
      s.add(k);
      ref_keys.push_back(k);
    }
    const Uint160 lo = rng.uniform_u160();
    const Uint160 hi = rng.uniform_u160();
    if (hi < lo) ++wrapping;
    reference_split(ref_keys, lo, hi, ref_out);
    EXPECT_EQ(s.split_arc_into(lo, hi, out), ref_out.size() - prefill);
    EXPECT_EQ(s.keys(), ref_keys) << "trial " << trial;
    EXPECT_EQ(out.keys(), ref_out) << "trial " << trial;
  }
  EXPECT_GT(wrapping, 0);
}

}  // namespace
}  // namespace dhtlb::sim
