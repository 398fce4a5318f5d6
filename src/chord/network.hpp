// In-memory Chord network: routes RPCs between ChordNodes and counts
// every message, so protocol costs (lookup hops, join cost, maintenance
// traffic, Sybil-placement traffic) are measurable.
//
// The network is single-threaded and deterministic: "RPCs" are direct
// calls, but each one increments a per-category message counter.  Node
// failure is modelled by marking a node dead; subsequent RPCs to it fail
// and the caller repairs its state exactly as the protocol prescribes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chord/node.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::chord {

/// Message-count ledger, one counter per RPC category.
struct MessageStats {
  std::uint64_t find_successor = 0;   // lookup routing steps
  std::uint64_t get_predecessor = 0;  // stabilize probes
  std::uint64_t get_successor_list = 0;
  std::uint64_t notify = 0;
  std::uint64_t ping = 0;  // liveness checks
  std::uint64_t total() const {
    return find_successor + get_predecessor + get_successor_list + notify +
           ping;
  }
  void reset() { *this = MessageStats{}; }
};

/// Result of a lookup: the owner of the key plus the routing cost.
struct LookupResult {
  NodeId owner;
  int hops = 0;  // routing steps taken (0 when the first node owns it)
};

/// Envoy-style fault injection for the message layer.  An RPC rolls up
/// to three independent seeded Bernoulli draws (see Network::post):
///   drop      — the request is lost before reaching the callee (no
///               side effect; the caller sees a timeout)
///   delay     — the reply arrives too late to use: the caller treats
///               the RPC as failed.  For read-style RPCs that simply
///               loses the answer; a delayed notify's side effect is
///               deferred — it lands at the callee at the start of the
///               next maintenance round, in the deterministic order the
///               delayed messages were sent (tick, then sequence)
///   duplicate — the message is delivered twice; the extra copy costs
///               one more counted message and is otherwise harmless
/// All probabilities default to 0: no RNG draw happens and behavior is
/// bit-identical to a fault-free network, so existing benches/baselines
/// cannot drift.
struct FaultConfig {
  double drop = 0.0;
  double delay = 0.0;
  double duplicate = 0.0;
  bool any() const { return drop > 0.0 || delay > 0.0 || duplicate > 0.0; }
};

/// The largest ring Network::bootstrap builds.  Its node-by-node joins
/// cost about n^2 work (a 4,000-node build takes ~17 s on a 4-vCPU
/// machine), so every size a caller asks for is checked against this.
inline constexpr std::size_t kMaxBootstrapNodes = 4096;

class Network {
 public:
  /// successor_list_size: r in the Chord paper (the tick simulator's
  /// numSuccessors); also used as the predecessor-awareness depth.
  explicit Network(std::size_t successor_list_size = 5)
      : successor_list_size_(successor_list_size) {}

  // --- membership --------------------------------------------------------

  /// Creates the first node of a fresh ring.  Precondition: empty network.
  NodeId create(NodeId id);

  /// Joins a node via `bootstrap` (must be alive): one lookup to find the
  /// successor, then the background stabilization integrates it.
  /// Returns false if `id` is already present.
  bool join(NodeId id, NodeId bootstrap);

  /// Builds a settled ring on an empty network: creates `ids[0]`, joins
  /// every further id through it with two stabilize rounds after each,
  /// runs `settle_rounds` more rounds, then builds every finger table.
  /// Every message is counted.  Throws std::invalid_argument when `ids`
  /// is empty, holds more than kMaxBootstrapNodes ids or repeats one.
  void bootstrap(std::span<const NodeId> ids, int settle_rounds);

  /// Graceful departure: transfers pointers so neighbors heal instantly.
  void leave(NodeId id);

  /// Abrupt failure: the node just stops answering; peers discover the
  /// failure through pings/RPC errors during maintenance.
  void fail(NodeId id);

  bool contains(NodeId id) const { return nodes_.contains(id); }
  std::size_t size() const { return nodes_.size(); }
  std::vector<NodeId> node_ids() const;

  // --- protocol ----------------------------------------------------------

  /// Iterative lookup for `key` starting at `from`.  Counts one
  /// find_successor message per routing step.
  LookupResult lookup(NodeId from, const NodeId& key);

  /// Runs one maintenance round (stabilize + fix one finger +
  /// check predecessor) on every live node, in ring order.
  void maintenance_round();

  /// Runs `rounds` maintenance rounds.
  void stabilize(int rounds);

  /// Fully populates every node's finger table (kFingerCount rounds of
  /// fix_fingers compressed into one call; costs the same messages).
  void build_all_fingers();

  // --- fault injection ----------------------------------------------------

  /// Reseeds the fault injector's RNG stream.  Call once per run before
  /// enabling faults so (config, seed) replays byte-identically.
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = support::Rng(seed); }

  /// Updates the fault probabilities, keeping the injector stream.
  /// Setting everything back to 0 turns injection off again.
  void set_faults(const FaultConfig& config);

  const FaultConfig& faults() const { return fault_config_; }

  /// A delayed notify awaiting delivery: enqueued when the delay fault
  /// fires, applied at the start of the next maintenance round in
  /// (round, seq) order — a total order independent of container
  /// iteration, so traces and goldens are stable.
  struct DelayedNotify {
    std::uint64_t round = 0;  // maintenance round it was sent in
    std::uint64_t seq = 0;    // send order within that round
    NodeId callee;
    NodeId candidate;
  };

  /// In-flight delayed notifies, oldest first (tests and debugging).
  const std::vector<DelayedNotify>& delayed_messages() const {
    return delayed_;
  }

  // --- observability -------------------------------------------------------

  /// Attaches a trace sink (nullable; null detaches).  The network then
  /// emits one instant per RPC plus fault instants (drop/delay/dup and
  /// deferred-notify delivery); the driver owns the sink and its tick
  /// clock.  Disabled cost: one branch per RPC.
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  // --- inspection ---------------------------------------------------------

  const ChordNode& node(NodeId id) const { return *nodes_.at(id); }
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }

  /// True iff successor/predecessor pointers form one consistent cycle
  /// covering every live node — the Chord correctness invariant.
  bool ring_consistent() const;

  /// The live node owning `key` according to ground truth (the sorted
  /// node set), for validating lookups against.
  NodeId true_owner(const NodeId& key) const;

 private:
  ChordNode* find_alive(const NodeId& id);
  const ChordNode* find_alive(const NodeId& id) const;

  // RPC wrappers, each a sequence of the fault steps below.
  std::optional<NodeId> rpc_get_successor(const NodeId& callee);
  std::optional<std::optional<NodeId>> rpc_get_predecessor(
      const NodeId& callee);
  std::optional<std::vector<NodeId>> rpc_get_successor_list(
      const NodeId& callee);
  bool rpc_notify(const NodeId& callee, const NodeId& candidate);
  bool rpc_ping(const NodeId& callee);
  std::optional<NodeId> rpc_closest_preceding(const NodeId& callee,
                                              const NodeId& key);

  void stabilize_node(ChordNode& n);
  void fix_finger(ChordNode& n);
  void check_predecessor(ChordNode& n);

  /// The notify predecessor rule, shared by the immediate path and the
  /// deferred (delayed) delivery path.
  void apply_notify(ChordNode& n, const NodeId& candidate);

  /// Delivers every queued delayed notify from earlier rounds.
  void deliver_delayed();

  void trace_rpc(const char* kind, const NodeId& callee);
  void trace_fault(const char* what, const char* kind, const NodeId& callee);

  // The fault steps every RPC is built from.  The draws are a pure
  // function of (seed, RPC sequence); a zero probability draws nothing.
  // The common sequence is post, dropped, the liveness check, then late
  // (a dead callee draws no delay).  Two RPCs roll late before the
  // liveness check: ping, and closest_preceding, which is also uncounted
  // and never duplicated (trace_rpc instead of post).
  //   post    — counts the message under `counter` and traces it; a
  //             duplicate roll counts it again and traces rpc_dup
  //   dropped — rolls the drop; a hit is traced rpc_drop
  //   late    — rolls the delay; a hit is traced rpc_delay
  void post(std::uint64_t MessageStats::*counter, const char* kind,
            const NodeId& callee);
  bool dropped(const char* kind, const NodeId& callee);
  bool late(const char* kind, const NodeId& callee);

  std::map<NodeId, std::unique_ptr<ChordNode>> nodes_;
  std::size_t successor_list_size_;
  MessageStats stats_;
  FaultConfig fault_config_;
  support::Rng fault_rng_{0};
  std::uint64_t round_ = 0;        // maintenance rounds completed/started
  std::uint64_t delayed_seq_ = 0;  // send order within the current round
  std::vector<DelayedNotify> delayed_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace dhtlb::chord
