#include "sim/backup.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "hashing/sha1.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using Id = support::Uint160;
using support::Rng;

std::vector<Id> make_nodes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Id> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(hashing::Sha1::hash_u64(rng()));
  }
  return nodes;
}

TEST(BackupRing, ConstructionValidation) {
  EXPECT_THROW(BackupRing({}, 3), std::invalid_argument);
  EXPECT_THROW(BackupRing(make_nodes(3, 1), 0), std::invalid_argument);
  std::vector<Id> dup{Id{1}, Id{1}};
  EXPECT_THROW(BackupRing(dup, 2), std::invalid_argument);
}

TEST(BackupRing, KeysGetReplicationCopies) {
  BackupRing ring(make_nodes(20, 2), 5);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const Id key = rng.uniform_u160();
    ring.add_key(key);
    EXPECT_EQ(ring.copies_of(key), 5u);
    EXPECT_TRUE(ring.key_alive(key));
  }
  EXPECT_EQ(ring.total_keys(), 50u);
  EXPECT_EQ(ring.lost_keys(), 0u);
}

TEST(BackupRing, ReplicationClampsToRingSize) {
  BackupRing ring(make_nodes(3, 4), 5);
  ring.add_key(Id{42});
  EXPECT_EQ(ring.copies_of(Id{42}), 3u) << "only 3 nodes exist";
}

TEST(BackupRing, SingleFailureNeverLosesData) {
  // §IV-A: "a node suddenly dying is of minimal impact".
  auto nodes = make_nodes(30, 5);
  BackupRing ring(nodes, 5);
  Rng rng(6);
  std::vector<Id> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.uniform_u160());
    ring.add_key(keys.back());
  }
  ring.fail_node(nodes[7]);
  for (const auto& key : keys) {
    EXPECT_TRUE(ring.key_alive(key));
  }
  EXPECT_EQ(ring.lost_keys(), 0u);
}

TEST(BackupRing, SurvivesRMinus1AdjacentFailuresWithoutRepair) {
  auto nodes = make_nodes(30, 7);
  std::sort(nodes.begin(), nodes.end());
  BackupRing ring(nodes, 5);
  Rng rng(8);
  for (int i = 0; i < 300; ++i) ring.add_key(rng.uniform_u160());
  // Kill 4 ring-adjacent nodes with no repair in between: every key had
  // 5 copies on consecutive nodes, so one copy must survive.
  for (int k = 3; k < 7; ++k) ring.fail_node(nodes[static_cast<std::size_t>(k)]);
  EXPECT_EQ(ring.lost_keys(), 0u);
}

TEST(BackupRing, RAdjacentFailuresCanLoseData) {
  // The negative control: replication r cannot survive r adjacent
  // simultaneous failures for keys homed exactly on that run of nodes.
  auto nodes = make_nodes(30, 9);
  std::sort(nodes.begin(), nodes.end());
  BackupRing ring(nodes, 3);
  // Place a key JUST before nodes[10] so its replica set is exactly
  // nodes[10..12].
  const Id key = nodes[10] - Id{1};
  ring.add_key(key);
  ring.fail_node(nodes[10]);
  ring.fail_node(nodes[11]);
  ring.fail_node(nodes[12]);
  EXPECT_FALSE(ring.key_alive(key));
  EXPECT_EQ(ring.lost_keys(), 1u);
}

TEST(BackupRing, RepairRestoresFullReplication) {
  auto nodes = make_nodes(25, 10);
  BackupRing ring(nodes, 5);
  Rng rng(11);
  std::vector<Id> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(rng.uniform_u160());
    ring.add_key(keys.back());
  }
  ring.fail_node(nodes[0]);
  ring.fail_node(nodes[1]);
  const std::uint64_t transfers = ring.repair();
  EXPECT_GT(transfers, 0u);
  for (const auto& key : keys) {
    EXPECT_EQ(ring.copies_of(key), 5u);
  }
  EXPECT_EQ(ring.repair(), 0u) << "repair is idempotent once converged";
}

TEST(BackupRing, FailRepairCycleSurvivesSustainedChurn) {
  // The ChordReduce claim: with a repair cycle per tick, the network
  // recovers from sustained churn without data loss as long as fewer
  // than r adjacent nodes die per cycle.
  auto nodes = make_nodes(40, 12);
  BackupRing ring(nodes, 5);
  Rng rng(13);
  for (int i = 0; i < 400; ++i) ring.add_key(rng.uniform_u160());
  Rng churn_rng(14);
  std::vector<Id> membership = nodes;
  for (int tick = 0; tick < 100; ++tick) {
    // One failure and one join per tick (2.5% churn on 40 nodes), with
    // a repair cycle after each — the paper's one-maintenance-per-tick
    // assumption.
    const std::size_t victim =
        static_cast<std::size_t>(churn_rng.below(membership.size()));
    ring.fail_node(membership[victim]);
    membership.erase(membership.begin() +
                     static_cast<std::ptrdiff_t>(victim));
    const Id joiner = hashing::Sha1::hash_u64(churn_rng());
    ASSERT_TRUE(ring.join_node(joiner));
    membership.push_back(joiner);
    ring.repair();
  }
  EXPECT_EQ(ring.lost_keys(), 0u)
      << "one failure per repair cycle must never lose data at r=5";
  EXPECT_EQ(ring.live_nodes(), 40u);
}

TEST(BackupRing, JoinersHoldNothingUntilRepair) {
  auto nodes = make_nodes(10, 15);
  BackupRing ring(nodes, 3);
  const Id key{1234567};
  ring.add_key(key);
  const std::size_t before = ring.copies_of(key);
  // A joiner landing inside the key's replica run takes over a slot
  // only after repair.
  const Id joiner = key + Id{1};
  ASSERT_TRUE(ring.join_node(joiner));
  EXPECT_EQ(ring.copies_of(key), before) << "no copies moved yet";
  ring.repair();
  EXPECT_EQ(ring.copies_of(key), 3u);
  EXPECT_TRUE(ring.key_alive(key));
}

TEST(BackupRing, DuplicateJoinRejected) {
  auto nodes = make_nodes(5, 16);
  BackupRing ring(nodes, 2);
  EXPECT_FALSE(ring.join_node(nodes[2]));
  EXPECT_TRUE(ring.join_node(Id{999}));
}

TEST(BackupRing, AddKeyOnARingWithNoLiveNodeThrows) {
  auto nodes = make_nodes(2, 17);
  BackupRing ring(nodes, 2);
  ring.fail_node(nodes[0]);
  ring.fail_node(nodes[1]);
  EXPECT_THROW(ring.add_key(Id{7}), std::logic_error);
  EXPECT_EQ(ring.total_keys(), 0u);
  EXPECT_FALSE(ring.key_alive(Id{7}));
  // A joiner and a repair find nothing to copy: no key was stored.
  ASSERT_TRUE(ring.join_node(Id{100}));
  EXPECT_EQ(ring.repair(), 0u);
  EXPECT_EQ(ring.copies_of(Id{7}), 0u);
}

TEST(BackupRing, AddingAKeyTwiceThrows) {
  auto nodes = make_nodes(3, 18);
  std::sort(nodes.begin(), nodes.end());
  BackupRing ring(nodes, 1);
  const Id key = nodes[1];
  ring.add_key(key);
  EXPECT_THROW(ring.add_key(key), std::invalid_argument) << "live key";
  ring.fail_node(nodes[1]);
  ASSERT_FALSE(ring.key_alive(key));
  // Re-adding a lost key must not revive it while lost_keys counts it.
  EXPECT_THROW(ring.add_key(key), std::invalid_argument) << "lost key";
  EXPECT_FALSE(ring.key_alive(key));
  EXPECT_EQ(ring.lost_keys(), 1u);
  EXPECT_EQ(ring.total_keys(), 1u);
}

/// The per-key model BackupRing replaced: every key keeps its own holder
/// list, and repair() rebuilds each key's targets by a search.  Slow but
/// obviously right; the differential test below holds BackupRing to it.
class PerKeyRing {
 public:
  PerKeyRing(const std::vector<Id>& nodes, std::size_t replication)
      : replication_(replication) {
    for (const auto& id : nodes) nodes_.emplace(id, true);
  }

  void add_key(const Id& key) {
    KeyState state;
    state.holders = target_holders(key);
    keys_[key] = std::move(state);
  }

  std::uint64_t fail_node(const Id& node) {
    const auto it = nodes_.find(node);
    if (it == nodes_.end()) return 0;
    nodes_.erase(it);
    std::uint64_t destroyed = 0;
    for (auto& [key, state] : keys_) {
      if (state.lost) continue;
      const auto pos =
          std::find(state.holders.begin(), state.holders.end(), node);
      if (pos == state.holders.end()) continue;
      state.holders.erase(pos);
      ++destroyed;
      if (state.holders.empty()) {
        state.lost = true;
        ++lost_;
      }
    }
    return destroyed;
  }

  bool join_node(const Id& id) { return nodes_.emplace(id, true).second; }

  std::uint64_t repair() {
    std::uint64_t transfers = 0;
    for (auto& [key, state] : keys_) {
      if (state.lost) continue;
      const std::vector<Id> targets = target_holders(key);
      for (const auto& target : targets) {
        if (std::find(state.holders.begin(), state.holders.end(), target) ==
            state.holders.end()) {
          ++transfers;
        }
      }
      state.holders = targets;
    }
    return transfers;
  }

  std::uint64_t total_keys() const { return keys_.size(); }
  std::uint64_t lost_keys() const { return lost_; }
  bool key_alive(const Id& key) const {
    const auto it = keys_.find(key);
    return it != keys_.end() && !it->second.lost;
  }
  std::size_t copies_of(const Id& key) const {
    const auto it = keys_.find(key);
    if (it == keys_.end() || it->second.lost) return 0;
    return it->second.holders.size();
  }
  std::size_t live_nodes() const { return nodes_.size(); }

 private:
  struct KeyState {
    std::vector<Id> holders;
    bool lost = false;
  };

  std::vector<Id> target_holders(const Id& key) const {
    std::vector<Id> holders;
    if (nodes_.empty()) return holders;
    auto it = nodes_.lower_bound(key);
    if (it == nodes_.end()) it = nodes_.begin();
    const std::size_t want = std::min(replication_, nodes_.size());
    while (holders.size() < want) {
      holders.push_back(it->first);
      ++it;
      if (it == nodes_.end()) it = nodes_.begin();
    }
    return holders;
  }

  std::map<Id, bool> nodes_;
  std::size_t replication_;
  std::map<Id, KeyState> keys_;
  std::uint64_t lost_ = 0;
};

TEST(BackupRingDifferentialTest, MatchesThePerKeyModel) {
  // Random add/fail/join/repair sequences on small rings.  Ids come from
  // a narrow range, so keys and nodes interleave densely: joins split
  // arcs whose keys were added both before and after the last repair,
  // keys land past the last node (the wrapping arc), failures hit known
  // and unknown ids, and joins repeat.  Replication runs up to 6 on
  // rings of 1-12 nodes, so it often exceeds the ring.
  constexpr int kSeeds = 600;
  constexpr int kOps = 80;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 1000);
    const auto draw_id = [&rng] { return Id{rng.below(48)}; };
    std::vector<Id> nodes;
    const std::size_t n = 1 + rng.below(12);
    while (nodes.size() < n) {
      const Id id = draw_id();
      if (std::find(nodes.begin(), nodes.end(), id) == nodes.end()) {
        nodes.push_back(id);
      }
    }
    const std::size_t replication = 1 + rng.below(6);
    BackupRing ring(nodes, replication);
    PerKeyRing model(nodes, replication);
    std::vector<Id> members = nodes;
    std::vector<Id> keys;
    for (int op = 0; op < kOps; ++op) {
      const std::uint64_t kind = rng.below(10);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", op " << op << ", kind " << kind);
      if (kind < 4) {  // add a fresh key
        const Id key = draw_id();
        if (members.empty() ||
            std::find(keys.begin(), keys.end(), key) != keys.end()) {
          continue;
        }
        keys.push_back(key);
        ring.add_key(key);
        model.add_key(key);
      } else if (kind < 6) {  // fail a member, or now and then any id
        Id victim = draw_id();
        if (!members.empty() && rng.below(4) != 0) {
          victim = members[rng.below(members.size())];
        }
        std::erase(members, victim);
        ASSERT_EQ(ring.fail_node(victim), model.fail_node(victim));
      } else if (kind < 8) {  // join, possibly an id already present
        const Id id = draw_id();
        const bool joined = model.join_node(id);
        ASSERT_EQ(ring.join_node(id), joined);
        if (joined) members.push_back(id);
      } else {
        ASSERT_EQ(ring.repair(), model.repair());
      }
      ASSERT_EQ(ring.total_keys(), model.total_keys());
      ASSERT_EQ(ring.lost_keys(), model.lost_keys());
      ASSERT_EQ(ring.live_nodes(), model.live_nodes());
      for (const auto& key : keys) {
        ASSERT_EQ(ring.copies_of(key), model.copies_of(key)) << key;
        ASSERT_EQ(ring.key_alive(key), model.key_alive(key)) << key;
      }
    }
  }
}

}  // namespace
}  // namespace dhtlb::sim
