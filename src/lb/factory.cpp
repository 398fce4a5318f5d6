#include "lb/factory.hpp"

#include <stdexcept>
#include <string>

#include "lb/rules.hpp"
#include "support/prefetch.hpp"

namespace dhtlb::lb {

namespace {

// The order reaches fuzz-generated scripts (see strategy_table()).
constexpr StrategyEntry kTable[] = {
    // name, section, paper, rule, param, retires idle Sybils
    {"none", "VI", true, nullptr, 0, false},
    {"churn", "IV-A", true, nullptr, 0, false},
    {"random-injection", "IV-B", true, random_injection, 0, true},
    {"neighbor-injection", "IV-C", true, neighbor_injection, kEstimate,
     true},
    {"smart-neighbor-injection", "IV-C", true, neighbor_injection, kSmart,
     true},
    {"invitation", "IV-D", true, invitation, 0, true},
    {"strength-aware", "VII", false, strength_aware, 0, true},
    {"chosen-id-neighbor", "VII", false, chosen_id, kNeighborhood, true},
    {"chosen-id-global", "VII", false, chosen_id, kGlobal, true},
    {"item-balance", "arXiv 1210.7954", false, item_balance, 2, false},
    {"item-balance-conservative", "arXiv 1210.7954", false, item_balance, 4,
     false},
};

/// Turns ahead at which the round hints the id of a node's busiest
/// vnode, the key of the ring search a rule starts from.  Below
/// World::kNodePrefetchDistance, so the store headers the busiest scan
/// reads were hinted a few turns earlier.
constexpr std::size_t kBusiestPrefetchDistance = 2;

/// The one decision round every balancing strategy runs.  It owns the
/// visitation buffer and any per-instance rule memory (neighbor
/// injection's failed-range marks), so a hot-swap, which builds a new
/// driver, starts from a clean slate.
class DecisionRound final : public sim::Strategy {
 public:
  explicit DecisionRound(const StrategyEntry& entry) : entry_(entry) {}

  std::string_view name() const override { return entry_.name; }

  void decide(sim::World& world, support::Rng& rng,
              sim::StrategyCounters& counters) override {
    shuffled_alive_into(world, rng, order_);
    NodeTurn turn{world, rng, counters, failed_ranges_};
    const std::size_t n = order_.size();
    for (std::size_t i = 0; i < n; ++i) {
      // Cache hints only: each turn reads the world afresh.
      world.prefetch_ahead(order_, i);
      if (i + kBusiestPrefetchDistance < n) {
        support::prefetch(&world.vnode_id(
            world.busiest_vnode(order_[i + kBusiestPrefetchDistance])));
      }
      const sim::NodeIndex idx = order_[i];
      if (entry_.retires_idle_sybils) retire_idle_sybils(world, idx, counters);
      turn.idx = idx;
      entry_.rule(turn, entry_.param);
    }
  }

 private:
  const StrategyEntry& entry_;
  std::vector<sim::NodeIndex> order_;  // reused visitation-order buffer
  FailedRanges failed_ranges_;
};

std::vector<std::string_view> names_where(bool paper) {
  std::vector<std::string_view> names;
  for (const StrategyEntry& entry : kTable) {
    if (entry.paper == paper) names.push_back(entry.name);
  }
  return names;
}

}  // namespace

std::span<const StrategyEntry> strategy_table() { return kTable; }

const StrategyEntry* find_strategy(std::string_view name) {
  for (const StrategyEntry& entry : kTable) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<sim::Strategy> make_strategy(std::string_view name) {
  const StrategyEntry* entry = find_strategy(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown strategy: " + std::string(name));
  }
  if (entry->rule == nullptr) return nullptr;
  return std::make_unique<DecisionRound>(*entry);
}

std::vector<std::string_view> strategy_names() { return names_where(true); }

std::vector<std::string_view> extension_strategy_names() {
  return names_where(false);
}

}  // namespace dhtlb::lb
