// Large-world smoke tests for the flat-ring data layer.  These build
// rings two orders of magnitude past the paper's 1000-node networks,
// run audited-off churn ticks the way the scale benches do, and then
// audit the final state once.  Registered RUN_SERIAL with an explicit
// TIMEOUT in tests/CMakeLists.txt: they own the machine's memory
// bandwidth while they run and must never wedge a CI shard.
#include <gtest/gtest.h>

#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {
namespace {

// Sanitizer builds run the same test at a tenth of the size: the goal
// there is instrumented coverage of the bulk paths, not wall time.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kScaleNodes = 10'000;
#else
constexpr std::size_t kScaleNodes = 100'000;
#endif

TEST(ScaleTest, LargeWorldBuildsAndPassesFullAudit) {
  const std::size_t nodes = kScaleNodes;
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = 2 * nodes;
  support::Rng rng(20260805);
  World world(p, rng);
  EXPECT_EQ(world.alive_count(), nodes);
  EXPECT_EQ(world.remaining_tasks(), 2 * nodes);
  const AuditReport report = InvariantAuditor(world).run();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ScaleTest, LargeWorldSurvivesAuditedOffChurnTicks) {
  const std::size_t nodes = kScaleNodes;
  Params p;
  p.initial_nodes = nodes;
  p.total_tasks = 2 * nodes;
  p.churn_rate = 0.01;
  Engine engine(p, /*seed=*/0x5CA1E);
  engine.set_audit(false);  // per-tick audits are O(ring + tasks)
  engine.set_pre_tick_hook([](std::uint64_t tick) { return tick <= 20; });
  for (int tick = 0; tick < 20; ++tick) {
    if (!engine.step()) break;
  }
  // One full audit at the end catches anything the 20 ticks corrupted.
  const AuditReport report = InvariantAuditor(engine.world()).run();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(engine.world().ring_index_consistent());
}

}  // namespace
}  // namespace dhtlb::sim
