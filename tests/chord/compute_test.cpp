#include "chord/compute.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dhtlb::chord {
namespace {

sim::Params small_params(double churn = 0.0) {
  sim::Params p;
  p.initial_nodes = 32;
  p.total_tasks = 1600;
  p.churn_rate = churn;
  return p;
}

ComputeResult small(std::string_view strategy, double churn = 0.0) {
  return run_compute(small_params(churn), strategy, 5);
}

TEST(Compute, BaselineCompletesAboveIdeal) {
  const ComputeResult r = small("none");
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.ideal_ticks, 50u);
  EXPECT_GE(r.runtime_factor, 1.0);
  EXPECT_EQ(r.sybils_created, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_GT(r.maintenance_messages, 0u) << "upkeep always costs messages";
}

TEST(Compute, Deterministic) {
  const ComputeResult a = small("random-injection");
  const ComputeResult b = small("random-injection");
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.messages.total(), b.messages.total());
  EXPECT_EQ(a.sybils_created, b.sybils_created);
}

TEST(Compute, RandomInjectionBeatsBaseline) {
  const ComputeResult base = small("none");
  const ComputeResult inj = small("random-injection");
  EXPECT_TRUE(inj.completed);
  EXPECT_LT(inj.ticks, base.ticks)
      << "the tick simulator's headline result must survive protocol "
         "fidelity";
  EXPECT_GT(inj.sybils_created, 0u);
}

TEST(Compute, ChurnBeatsBaselineAndLosesNoTasks) {
  const ComputeResult base = small("none");
  const ComputeResult churn = small("churn", 0.02);
  EXPECT_TRUE(churn.completed) << "active backup loses nothing";
  EXPECT_GT(churn.failures, 0u);
  EXPECT_GT(churn.joins, 0u);
  EXPECT_LT(churn.ticks, base.ticks);
}

TEST(Compute, NeighborInjectionPlacesViaHashSearch) {
  const ComputeResult r = small("neighbor-injection");
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.sybils_created, 0u);
  // Hash search inside a 1/n gap needs ~n draws per placement; random
  // injection needs exactly one.  This is the placement-cost asymmetry.
  EXPECT_GT(r.sybil_search_hashes, r.sybils_created);
}

TEST(Compute, RandomInjectionPaysOneHashPerPlacement) {
  const ComputeResult r = small("random-injection");
  // Every decision draws exactly one hash whether or not the join
  // succeeds, so hashes ~ placements.
  EXPECT_GE(r.sybil_search_hashes, r.sybils_created);
  EXPECT_LT(r.sybil_search_hashes, r.sybils_created + 200u);
}

TEST(Compute, TransfersHappenOnMembershipChanges) {
  const ComputeResult r = small("churn", 0.05);
  EXPECT_GT(r.tasks_transferred, 0u);
}

TEST(Compute, RuntimeShapeMatchesTickSimulator) {
  // Cross-model validation: protocol-level runtime factors must order
  // the same way the tick simulator orders them (none > churn > random
  // injection).
  const double base = small("none").runtime_factor;
  const double churn = small("churn", 0.02).runtime_factor;
  const double inj = small("random-injection").runtime_factor;
  EXPECT_LT(inj, churn);
  EXPECT_LT(churn, base);
}

// Inputs: every Params field the run cannot honour fails before the run
// starts, with a message naming the field.
void expect_rejected(const sim::Params& params, std::string_view strategy,
                     const std::string& message) {
  try {
    run_compute(params, strategy, 1);
    ADD_FAILURE() << "accepted: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(ComputeInputs, ZeroNodesIsRejected) {
  sim::Params p = small_params();
  p.initial_nodes = 0;
  expect_rejected(p, "none", "Params: initial_nodes must be >= 1");
}

TEST(ComputeInputs, ZeroDecisionPeriodIsRejected) {
  sim::Params p = small_params();
  p.decision_period = 0;
  expect_rejected(p, "random-injection",
                  "Params: decision_period must be >= 1");
}

TEST(ComputeInputs, ChurnRateOutsideTheUnitIntervalIsRejected) {
  for (const double rate : {-0.01, 1.5}) {
    sim::Params p = small_params();
    p.churn_rate = rate;
    expect_rejected(p, "churn", "Params: churn_rate must be in [0, 1]");
  }
}

TEST(ComputeInputs, StreamedProvisioningIsRejected) {
  sim::Params p = small_params();
  p.provisioning = sim::TaskProvisioning::kStreamed;
  expect_rejected(p, "none",
                  "run_compute: provisioning streamed has no protocol form "
                  "(the ring would start with no tasks)");
}

TEST(ComputeInputs, MarkFailedRangesIsRejected) {
  sim::Params p = small_params();
  p.mark_failed_ranges = true;
  expect_rejected(p, "neighbor-injection",
                  "run_compute: mark-failed-ranges true has no protocol "
                  "form");
}

TEST(ComputeInputs, StrategiesWithoutAProtocolFormAreRejected) {
  for (const std::string_view name :
       {"invitation", "smart-neighbor-injection", "no-such-strategy"}) {
    expect_rejected(small_params(), name,
                    "run_compute: strategy '" + std::string(name) +
                        "' has no protocol form (expected none, churn, "
                        "random-injection or neighbor-injection)");
  }
}

// Pin: every ComputeResult field of the five tableM rows (64 nodes, 6400
// tasks), folded per row over seeds 1..3.  The digests were recorded on
// an earlier implementation that kept its own map of keys per vnode, so
// they check the World data plane against an independent one.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fold_result(std::uint64_t h, const ComputeResult& r) {
  for (const std::uint64_t v :
       {r.ticks, r.ideal_ticks, std::bit_cast<std::uint64_t>(r.runtime_factor),
        std::uint64_t{r.completed}, r.messages.find_successor,
        r.messages.get_predecessor, r.messages.get_successor_list,
        r.messages.notify, r.messages.ping, r.maintenance_messages,
        r.sybils_created, r.sybil_search_hashes, r.joins, r.failures,
        r.tasks_transferred}) {
    h = fold(h, v);
  }
  return h;
}

struct PinRow {
  std::string_view strategy;
  double churn;
  std::uint64_t digest;
};

ComputeResult run_pin_row(const PinRow& row, std::uint64_t seed) {
  sim::Params p;
  p.initial_nodes = 64;
  p.total_tasks = 6400;
  p.churn_rate = row.churn;
  return run_compute(p, row.strategy, seed);
}

TEST(ComputePin, TableMRowsMatchTheReference) {
  const PinRow rows[] = {
      {"none", 0.0, 0x839CBB8F48C6AFA4ull},
      {"churn", 0.01, 0x31448E4D344928F9ull},
      {"churn", 0.03, 0x204A9FFAF1FA0427ull},
      {"random-injection", 0.0, 0x49CA451A4FD76E2Eull},
      {"neighbor-injection", 0.0, 0x10B0C96FD97AC598ull},
  };
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ComputeResult r = run_pin_row(rows[i], seed);
      EXPECT_TRUE(r.completed) << "row " << i << " seed " << seed;
      h = fold_result(h, r);
    }
    EXPECT_EQ(h, rows[i].digest) << "row " << i;
  }
}

}  // namespace
}  // namespace dhtlb::chord
