// Byte pins for every strategy name: a small churning world runs a fixed
// number of ticks under each strategy, and an order-sensitive fold of the
// final workloads plus every StrategyCounters field must equal constants
// recorded from the reference implementation.  Any change to a rule's
// world calls, RNG draws or their order moves at least one pinned value,
// so a refactor of src/lb that claims byte-identical output is checked
// here at tier-1 cost instead of only by the nightly 1M-node grid.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lb/factory.hpp"
#include "sim/engine.hpp"

namespace dhtlb::lb {
namespace {

struct Pin {
  std::string_view name;
  bool heterogeneous;
  bool mark_failed_ranges;
  std::uint64_t workload_fold;
  sim::StrategyCounters counters;
};

struct Observed {
  std::uint64_t workload_fold = 0;
  sim::StrategyCounters counters;
};

// FNV-1a over (node index, workload) in alive order: the fold moves when
// any node's load, the alive set or its order changes.
std::uint64_t fold_workloads(const sim::World& world) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const sim::NodeIndex idx : world.alive_indices()) {
    mix(idx);
    mix(world.workload(idx));
  }
  return h;
}

Observed run_pinned(std::string_view name, bool heterogeneous,
                    bool mark_failed_ranges) {
  sim::Params p;
  p.initial_nodes = 120;
  p.total_tasks = 6000;
  p.churn_rate = 0.01;
  p.sybil_threshold = 2;
  p.max_ticks = 40;
  p.heterogeneous = heterogeneous;
  if (heterogeneous) p.work_measure = sim::WorkMeasure::kStrengthPerTick;
  p.mark_failed_ranges = mark_failed_ranges;
  sim::Engine engine(p, 2024, make_strategy(name));
  engine.set_audit(false);
  const sim::RunResult result = engine.run();
  return {fold_workloads(engine.world()), result.strategy_counters};
}

// Counter order: sybils_created, sybils_retired, tasks_acquired_by_sybils,
// failed_placements, workload_queries, invitations_sent,
// invitations_accepted, ranges_marked_invalid, boundary_moves,
// tasks_moved.
const std::vector<Pin>& pins() {
  static const std::vector<Pin> kPins = {
      {"none", false, false, 4189959643874857779ULL,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"churn", false, false, 4189959643874857779ULL,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"random-injection", false, false, 4924094513256417221ULL,
       {224, 97, 4164, 57, 0, 0, 0, 0, 0, 0}},
      {"neighbor-injection", false, false, 18434474743058763949ULL,
       {201, 79, 4146, 54, 0, 0, 0, 0, 0, 0}},
      {"smart-neighbor-injection", false, false, 115316205860956899ULL,
       {141, 31, 2952, 9, 735, 0, 0, 0, 0, 0}},
      {"invitation", false, false, 12577184505951271151ULL,
       {192, 44, 3166, 5, 0, 867, 192, 0, 0, 0}},
      {"strength-aware", false, false, 12288588534244481297ULL,
       {147, 31, 2984, 15, 735, 0, 0, 0, 0, 0}},
      {"chosen-id-neighbor", false, false, 7680448341031352345ULL,
       {137, 33, 3026, 0, 892, 0, 0, 0, 0, 0}},
      {"chosen-id-global", false, false, 14960298766472164809ULL,
       {95, 8, 3061, 0, 570, 0, 0, 0, 0, 0}},
      {"item-balance", false, false, 16819075111642945528ULL,
       {0, 0, 0, 0, 1266, 0, 0, 0, 301, 4877}},
      {"item-balance-conservative", false, false, 9302382558528550259ULL,
       {0, 0, 0, 0, 1168, 0, 0, 0, 204, 4075}},
      // The stateful failed-range marks and the strength-weighted split,
      // which the homogeneous defaults above leave idle or rarely reach.
      {"neighbor-injection", false, true, 16635493726258793812ULL,
       {202, 80, 4159, 51, 0, 0, 0, 51, 0, 0}},
      {"strength-aware", true, false, 419691484644125787ULL,
       {552, 410, 3300, 355, 2760, 0, 0, 0, 0, 0}},
  };
  return kPins;
}

std::string describe(const Observed& o) {
  const sim::StrategyCounters& c = o.counters;
  std::string s = std::to_string(o.workload_fold) + "ULL, {";
  const std::uint64_t fields[] = {c.sybils_created,
                                  c.sybils_retired,
                                  c.tasks_acquired_by_sybils,
                                  c.failed_placements,
                                  c.workload_queries,
                                  c.invitations_sent,
                                  c.invitations_accepted,
                                  c.ranges_marked_invalid,
                                  c.boundary_moves,
                                  c.tasks_moved};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    s += (i == 0 ? "" : ", ") + std::to_string(fields[i]);
  }
  return s + "}";
}

TEST(StrategyPin, PinsCoverEveryStrategyName) {
  std::vector<std::string_view> names = strategy_names();
  for (const std::string_view name : extension_strategy_names()) {
    names.push_back(name);
  }
  ASSERT_GE(pins().size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(pins()[i].name, names[i]) << "pin " << i;
  }
}

TEST(StrategyPin, FixedWorldOutputsMatchTheReference) {
  for (const Pin& pin : pins()) {
    const Observed got =
        run_pinned(pin.name, pin.heterogeneous, pin.mark_failed_ranges);
    const Observed want{pin.workload_fold, pin.counters};
    EXPECT_EQ(describe(got), describe(want))
        << pin.name << (pin.heterogeneous ? " (heterogeneous)" : "")
        << (pin.mark_failed_ranges ? " (mark-failed-ranges)" : "");
  }
}

}  // namespace
}  // namespace dhtlb::lb
