// The strategy table and factory: name-keyed construction for the
// experiment harness, benches, examples and the scenario language.
//
// The table (factory.cpp) lists every strategy once: the paper's
// baseline, Induced Churn and three Sybil strategies (§IV), then the
// extensions — strength-aware and chosen-ID Sybil placement (§VII future
// work) and the non-Sybil item-balance family after Chawachat &
// Fakcharoenphol.  Every strategy that balances runs the same decision
// round (§IV-B: every decision_period ticks, each node in a random order
// retires its idle Sybils, then acts once); only its per-node rule
// (lb/rules.cpp) and that rule's parameter differ.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sim/strategy.hpp"

namespace dhtlb::lb {

struct NodeTurn;  // lb/rules.hpp

/// One strategy-table row.
struct StrategyEntry {
  std::string_view name;
  /// Paper section that describes it (ASCII, e.g. "IV-B"), or the source
  /// of a rule from outside the paper.
  std::string_view section;
  bool paper;  // one of the paper's strategies, not an extension
  /// The per-node rule and its parameter (a mode, scope or δ).  Null for
  /// "none" and "churn", which run no decision round: churn is the
  /// engine's churn_rate, not a strategy (§IV-A).
  void (*rule)(NodeTurn& turn, std::uint64_t param);
  std::uint64_t param;
  /// §IV-B: the Sybil families retire an idle node's Sybils before its
  /// rule; item balance creates none and retires none.
  bool retires_idle_sybils;
};

/// Every strategy: the paper's in paper order, then the extensions.  The
/// fuzzer draws names by index, so this order reaches generated scripts.
std::span<const StrategyEntry> strategy_table();

/// The entry named `name`, or nullptr.
const StrategyEntry* find_strategy(std::string_view name);

/// Builds a strategy by name; "none" and "churn" yield nullptr (the
/// engine treats a null strategy as "no Sybil policy").  Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<sim::Strategy> make_strategy(std::string_view name);

/// The paper's strategy names (§IV), in table order.
std::vector<std::string_view> strategy_names();

/// The extension names, in table order: strength-aware, the chosen-ID
/// pair and the item-balance family.
std::vector<std::string_view> extension_strategy_names();

}  // namespace dhtlb::lb
