// InvariantAuditor coverage: a clean world passes every check, each
// deliberately seeded corruption is pinned by the check it targets, and
// full audited engine runs of the paper's strategies stay clean.
#include "sim/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/world.hpp"
#include "sim/world_corruptor.hpp"
#include "sim/world_testing.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

using testing::AuditClean;
using testing::WorldCorruptor;

Params small_params() {
  Params p;
  p.initial_nodes = 40;
  p.total_tasks = 2'000;
  return p;
}

std::set<std::string> failing_checks(const World& world) {
  const AuditReport report = InvariantAuditor(world).run();
  std::set<std::string> names;
  for (const AuditFailure& failure : report.failures) {
    names.insert(failure.check);
  }
  return names;
}

TEST(InvariantAuditorTest, CleanWorldPassesEveryCheck) {
  support::Rng rng(7);
  World world(small_params(), rng);
  EXPECT_TRUE(AuditClean(world));
}

TEST(InvariantAuditorTest, CleanWorldStaysCleanThroughMutation) {
  support::Rng rng(11);
  Params params = small_params();
  params.churn_rate = 0.05;
  World world(params, rng);
  for (int round = 0; round < 20; ++round) {
    world.join_from_pool(rng);
    if (world.alive_count() > 1) world.depart(world.alive_indices().front());
    for (const NodeIndex idx : world.alive_indices()) {
      testing::consume(world, idx, 1, rng);
    }
  }
  EXPECT_TRUE(AuditClean(world));
}

TEST(InvariantAuditorTest, DetectsOrphanedKey) {
  support::Rng rng(13);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::orphan_key(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("key-partition"));
}

TEST(InvariantAuditorTest, DetectsKeyJustOutsideItsArc) {
  // A key at an arc's excluded end or one past its id shares the top 64
  // bits of that end, so it reaches the exact 160-bit arc test.
  for (const bool past_id : {false, true}) {
    support::Rng rng(67);
    World world(small_params(), rng);
    ASSERT_TRUE(WorldCorruptor::plant_boundary_key(world, past_id));
    const std::set<std::string> failing = failing_checks(world);
    EXPECT_TRUE(failing.contains("key-partition")) << "past_id " << past_id;
    EXPECT_EQ(failing.size(), 1u) << InvariantAuditor(world).run().to_string();
  }
}

TEST(InvariantAuditorTest, DetectsDuplicatedArc) {
  support::Rng rng(17);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::duplicate_arc(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("sybil-ownership"));
}

TEST(InvariantAuditorTest, DetectsDanglingSybilOwner) {
  support::Rng rng(19);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::dangle_sybil_owner(world, rng));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("sybil-ownership"));
}

TEST(InvariantAuditorTest, DetectsBrokenTaskConservation) {
  support::Rng rng(23);
  World world(small_params(), rng);
  WorldCorruptor::inflate_remaining(world);
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("conservation"));
}

TEST(InvariantAuditorTest, DetectsStaleWorkloadCache) {
  support::Rng rng(29);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::corrupt_workload_cache(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("workload-cache"));
}

TEST(InvariantAuditorTest, DetectsMembershipCorruption) {
  support::Rng rng(31);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::break_membership(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("membership"));
}

TEST(InvariantAuditorTest, DetectsDesyncedRingIndex) {
  // The arena id is rewritten behind the index's back; every public
  // observer keeps answering from the index, so only the
  // index-integrity cross-reference can notice.
  support::Rng rng(41);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::desync_ring_index(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("index-integrity"));
}

TEST(InvariantAuditorTest, DetectsStaleBlockSummary) {
  // The last block's summary id overstates its largest id; lookups of
  // every vnode still resolve, so only the index-integrity summary check
  // can notice.
  support::Rng rng(43);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::stale_ring_summary(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  const std::set<std::string> failing = failing_checks(world);
  EXPECT_TRUE(failing.contains("index-integrity"));
  EXPECT_FALSE(failing.contains("ring-order"));
}

TEST(InvariantAuditorTest, DetectsOutOfOrderIndex) {
  // Two adjacent index entries trade places.  Both walks follow the
  // index, so successor-lists and the predecessor edges agree with its
  // sweep; ring-order's ascending check and point lookups must catch it.
  support::Rng rng(47);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::misorder_ring_index(world));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("ring-order"));
}

TEST(InvariantAuditorTest, DetectsListedFreedSlot) {
  // The Sybil's vnode is gone from the ring (its keys merged into the
  // successor) but its owner still lists the freed slot: the slot's
  // arena entry still names the owner, so only the live mark says it
  // holds no vnode.
  support::Rng rng(53);
  World world(small_params(), rng);
  ASSERT_TRUE(WorldCorruptor::list_freed_slot(world, rng));
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("sybil-ownership"));
}

TEST(InvariantAuditorTest, TinyRingsPassEveryCheck) {
  // The whole-ring walks at their edges: a lone vnode (both walks
  // empty), two and three vnodes (every step wraps within a list), and a
  // ring shorter than its successor lists (n - 1 < num_successors).
  for (const std::size_t nodes : {1u, 2u, 3u}) {
    support::Rng rng(59 + nodes);
    Params params;
    params.initial_nodes = nodes;
    params.total_tasks = 50;
    const World world(params, rng);
    ASSERT_EQ(world.vnode_count(), nodes);
    EXPECT_TRUE(AuditClean(world)) << nodes << " vnodes";
  }
  support::Rng rng(61);
  Params params;
  params.initial_nodes = 4;
  params.total_tasks = 50;
  params.num_successors = 8;
  World world(params, rng);
  ASSERT_LT(world.vnode_count() - 1, params.num_successors);
  EXPECT_TRUE(AuditClean(world));
  const NodeIndex idx = world.alive_indices().front();
  ASSERT_TRUE(
      world.create_sybil(idx, hashing::Sha1::hash_u64(rng())).has_value());
  EXPECT_TRUE(AuditClean(world)) << "after a Sybil joins";
}

TEST(InvariantAuditorTest, SybilCapViolationIsDetected) {
  // create_sybil deliberately does not enforce the cap (that is the
  // strategy's job) — the auditor must flag a strategy that overshoots.
  support::Rng rng(37);
  Params params = small_params();
  params.max_sybils = 1;
  World world(params, rng);
  const NodeIndex idx = world.alive_indices().front();
  unsigned placed = 0;
  while (placed < 2) {
    if (world.create_sybil(idx, hashing::Sha1::hash_u64(rng()))) ++placed;
  }
  EXPECT_FALSE(InvariantAuditor(world).run().ok());
  EXPECT_TRUE(failing_checks(world).contains("sybil-ownership"));
}

// A full audited run of each paper strategy (plus the churn baseline and
// the strength-aware extension) must stay invariant-clean for 200 ticks;
// any violation aborts the engine, failing the test.
class AuditedEngineRunTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AuditedEngineRunTest, StaysCleanFor200Ticks) {
  Params params;
  params.initial_nodes = 60;
  params.total_tasks = 30'000;
  params.churn_rate = 0.02;
  const std::string name = GetParam();
  if (name == "strength-aware") {
    params.heterogeneous = true;
    params.work_measure = WorkMeasure::kStrengthPerTick;
  }
  Engine engine(params, /*seed=*/0x5EEDBA5E, lb::make_strategy(name));
  engine.set_audit(true);
  for (int tick = 0; tick < 200; ++tick) {
    if (!engine.step()) break;
  }
  // The per-tick audit already ran inside step(); double-check the final
  // state from outside the engine too.
  EXPECT_TRUE(AuditClean(engine.world()));
}

INSTANTIATE_TEST_SUITE_P(Strategies, AuditedEngineRunTest,
                         ::testing::Values("churn", "random-injection",
                                           "neighbor-injection",
                                           "smart-neighbor-injection",
                                           "invitation", "strength-aware"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AuditedEngineDeathTest, AbortsWithTickAndSeedOnCorruption) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto corrupted_run = [] {
    Params params;
    params.initial_nodes = 30;
    params.total_tasks = 1'000;
    Engine engine(params, /*seed=*/42);
    engine.set_audit(true);
    engine.step();  // clean tick passes the audit
    WorldCorruptor::inflate_remaining(engine.world());
    engine.step();  // audit must now abort
  };
  EXPECT_DEATH(corrupted_run(),
               "invariant audit failed at tick 2, seed 42");
}

}  // namespace
}  // namespace dhtlb::sim
