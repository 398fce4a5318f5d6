// A distributed computation driven on the REAL Chord protocol — the
// ChordReduce model the paper builds on, at protocol fidelity.
//
// The tick simulator (src/sim) assumes maintenance is free and joins are
// instantaneous; this module drops both.  Its control plane is a
// chord::Network: every join (churn arrival or Sybil placement) goes
// through Network::join + stabilization, Sybil IDs are found by hash
// search (counted in SHA-1 evaluations), failures are abrupt and healed
// by one maintenance round per tick (§V), and every RPC is counted.  Its
// data plane is the tick simulator's own sim::World (active-backup key
// movement, alive set, waiting pool, consumption) under the same Params.
//
// Purpose: validate that the tick simulator's idealization preserves the
// paper's results (runtime-factor shapes must match), and put numbers on
// its traffic claims ("neighbor injection generates much less churn").
#pragma once

#include <cstdint>
#include <string_view>

#include "chord/network.hpp"
#include "sim/params.hpp"

namespace dhtlb::chord {

struct ComputeResult {
  std::uint64_t ticks = 0;
  std::uint64_t ideal_ticks = 0;
  double runtime_factor = 0.0;
  bool completed = false;

  MessageStats messages;              // all protocol traffic of the run
  std::uint64_t maintenance_messages = 0;  // subset spent on upkeep
  std::uint64_t sybils_created = 0;
  std::uint64_t sybil_search_hashes = 0;  // SHA-1 evals spent placing
  std::uint64_t joins = 0;
  std::uint64_t failures = 0;
  std::uint64_t tasks_transferred = 0;  // keys that changed owner
};

/// Runs the computation to completion (or Params::effective_max_ticks).
/// `strategy` is a lb::strategy_table() row with a protocol form: none,
/// churn, random-injection or neighbor-injection; churn follows
/// params.churn_rate under every strategy.  Throws std::invalid_argument
/// for any other strategy, an invalid Params, streamed provisioning or
/// mark-failed-ranges.
ComputeResult run_compute(const sim::Params& params, std::string_view strategy,
                          std::uint64_t seed);

}  // namespace dhtlb::chord
