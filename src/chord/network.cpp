#include "chord/network.hpp"

#include <stdexcept>
#include <string>

#include "support/check.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::chord {

using support::in_half_open_arc;
using support::in_open_arc;

NodeId Network::create(NodeId id) {
  if (!nodes_.empty()) {
    throw std::logic_error("Network::create: ring already exists");
  }
  auto node = std::make_unique<ChordNode>(id, successor_list_size_);
  node->set_successor(id);  // alone: own successor
  node->set_predecessor(id);
  nodes_.emplace(id, std::move(node));
  return id;
}

bool Network::join(NodeId id, NodeId bootstrap) {
  if (nodes_.contains(id)) return false;
  ChordNode* boot = find_alive(bootstrap);
  if (boot == nullptr) {
    throw std::invalid_argument("Network::join: dead/unknown bootstrap");
  }
  const LookupResult res = lookup(bootstrap, id);
  auto node = std::make_unique<ChordNode>(id, successor_list_size_);
  node->set_successor(res.owner);
  // Predecessor stays unset; the successor learns about us (and we learn
  // our predecessor) through stabilize/notify, per the protocol.
  nodes_.emplace(id, std::move(node));
  return true;
}

void Network::bootstrap(std::span<const NodeId> ids, int settle_rounds) {
  if (ids.empty() || ids.size() > kMaxBootstrapNodes) {
    throw std::invalid_argument(
        "Network::bootstrap: " + std::to_string(ids.size()) +
        " nodes (a bootstrap builds 1.." + std::to_string(kMaxBootstrapNodes) +
        ")");
  }
  create(ids[0]);
  for (const NodeId& id : ids.subspan(1)) {
    if (!join(id, ids[0])) {
      throw std::invalid_argument("Network::bootstrap: duplicate id " +
                                  id.to_short_hex());
    }
    stabilize(2);  // integrate before the next joiner, like a real ring
  }
  stabilize(settle_rounds);
  build_all_fingers();
}

void Network::leave(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  ChordNode& n = *it->second;
  // Graceful handoff: connect predecessor and successor directly.
  const NodeId succ = n.successor();
  const auto pred = n.predecessor();
  if (succ != id) {
    if (ChordNode* s = find_alive(succ); s != nullptr) {
      if (pred && *pred != id) s->set_predecessor(*pred);
    }
  }
  if (pred && *pred != id) {
    if (ChordNode* p = find_alive(*pred); p != nullptr && succ != id) {
      p->set_successor(succ);
    }
  }
  nodes_.erase(it);
  for (auto& [nid, other] : nodes_) other->forget(id);
  // Note: forget() is bookkeeping on our in-memory ground truth, not a
  // broadcast; a real deployment heals lazily, which fail() models.
}

void Network::fail(NodeId id) {
  nodes_.erase(id);
  // Nobody is told: peers still hold dangling references and discover the
  // failure when their RPCs to `id` go unanswered.
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  return ids;
}

LookupResult Network::lookup(NodeId from, const NodeId& key) {
  ChordNode* cur = find_alive(from);
  if (cur == nullptr) {
    throw std::invalid_argument("Network::lookup: dead/unknown origin");
  }
  LookupResult result{from, 0};
  // Iterative routing, bounded by the ring size as a safety net against
  // transiently inconsistent pointers during churn.
  const int hop_limit = static_cast<int>(nodes_.size()) + 2 * 160;
  NodeId cur_id = from;
  for (int hop = 0; hop <= hop_limit; ++hop) {
    auto succ = rpc_get_successor(cur_id);
    if (!succ) {
      // Current hop died mid-lookup; restart from the origin's viewpoint
      // after it repairs (the caller's maintenance will have pruned it).
      result.owner = true_owner(key);
      return result;
    }
    if (in_half_open_arc(key, cur_id, *succ)) {
      result.owner = *succ;
      return result;
    }
    auto next = rpc_closest_preceding(cur_id, key);
    ++result.hops;
    ++stats_.find_successor;
    if (!next || *next == cur_id) {
      // No better route known: hand the key to the successor and let the
      // next iteration route from there (linear fallback).
      cur_id = *succ;
      continue;
    }
    cur_id = *next;
  }
  // Pointers were too inconsistent to route; report ground truth so
  // callers can proceed, but this indicates missing stabilization.
  result.owner = true_owner(key);
  return result;
}

void Network::maintenance_round() {
  // Start of round: deliver notifies whose replies were delayed in
  // earlier rounds, in (round, seq) send order.
  ++round_;
  delayed_seq_ = 0;
  if (!delayed_.empty()) deliver_delayed();
  // Snapshot IDs first: stabilization never adds nodes, but forget()/
  // pruning may not invalidate our iteration this way.
  const std::vector<NodeId> ids = node_ids();
  for (const auto& id : ids) {
    ChordNode* n = find_alive(id);
    if (n == nullptr) continue;
    check_predecessor(*n);
    stabilize_node(*n);
    fix_finger(*n);
  }
}

void Network::stabilize(int rounds) {
  for (int i = 0; i < rounds; ++i) maintenance_round();
}

void Network::build_all_fingers() {
  for (auto& [id, node] : nodes_) {
    for (int f = 0; f < ChordNode::kFingerCount; ++f) {
      fix_finger(*node);
    }
  }
}

bool Network::ring_consistent() const {
  if (nodes_.empty()) return true;
  // Every node's successor must be the next live node clockwise and its
  // predecessor the previous one.
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    auto next = std::next(it);
    const NodeId expected_succ =
        next == nodes_.end() ? nodes_.begin()->first : next->first;
    if (it->second->successor() != expected_succ) return false;
    auto prev = it == nodes_.begin() ? std::prev(nodes_.end()) : std::prev(it);
    if (!it->second->predecessor() ||
        *it->second->predecessor() != prev->first) {
      return false;
    }
  }
  return true;
}

NodeId Network::true_owner(const NodeId& key) const {
  DHTLB_CHECK(!nodes_.empty(), "true_owner(" << key << ") on an empty ring");
  // Owner = first node clockwise at or after the key.
  auto it = nodes_.lower_bound(key);
  if (it == nodes_.end()) it = nodes_.begin();
  return it->first;
}

void Network::set_faults(const FaultConfig& config) {
  DHTLB_CHECK(config.drop >= 0.0 && config.drop <= 1.0 &&
                  config.delay >= 0.0 && config.delay <= 1.0 &&
                  config.duplicate >= 0.0 && config.duplicate <= 1.0,
              "set_faults: probabilities must be in [0, 1]");
  fault_config_ = config;
}

void Network::trace_rpc(const char* kind, const NodeId& callee) {
  if (trace_) {
    trace_->instant("rpc", "rpc",
                    {{"kind", kind}, {"callee", callee.to_short_hex()}});
  }
}

void Network::trace_fault(const char* what, const char* kind,
                          const NodeId& callee) {
  if (trace_) {
    trace_->instant(what, "fault",
                    {{"kind", kind}, {"callee", callee.to_short_hex()}});
  }
}

ChordNode* Network::find_alive(const NodeId& id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ChordNode* Network::find_alive(const NodeId& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void Network::post(std::uint64_t MessageStats::*counter, const char* kind,
                   const NodeId& callee) {
  ++(stats_.*counter);
  trace_rpc(kind, callee);
  if (fault_config_.duplicate > 0.0 &&
      fault_rng_.bernoulli(fault_config_.duplicate)) {
    ++(stats_.*counter);
    trace_fault("rpc_dup", kind, callee);
  }
}

bool Network::dropped(const char* kind, const NodeId& callee) {
  const bool hit =
      fault_config_.drop > 0.0 && fault_rng_.bernoulli(fault_config_.drop);
  if (hit) trace_fault("rpc_drop", kind, callee);
  return hit;
}

bool Network::late(const char* kind, const NodeId& callee) {
  const bool hit =
      fault_config_.delay > 0.0 && fault_rng_.bernoulli(fault_config_.delay);
  if (hit) trace_fault("rpc_delay", kind, callee);
  return hit;
}

std::optional<NodeId> Network::rpc_get_successor(const NodeId& callee) {
  // Counted with the successor-list traffic it rides on.
  post(&MessageStats::get_successor_list, "get_successor", callee);
  if (dropped("get_successor", callee)) return std::nullopt;
  const ChordNode* n = find_alive(callee);
  if (!n || late("get_successor", callee)) return std::nullopt;
  return n->successor();
}

std::optional<std::optional<NodeId>> Network::rpc_get_predecessor(
    const NodeId& callee) {
  post(&MessageStats::get_predecessor, "get_predecessor", callee);
  if (dropped("get_predecessor", callee)) return std::nullopt;
  const ChordNode* n = find_alive(callee);
  if (!n || late("get_predecessor", callee)) return std::nullopt;
  return n->predecessor();
}

std::optional<std::vector<NodeId>> Network::rpc_get_successor_list(
    const NodeId& callee) {
  post(&MessageStats::get_successor_list, "get_successor_list", callee);
  if (dropped("get_successor_list", callee)) return std::nullopt;
  const ChordNode* n = find_alive(callee);
  if (!n || late("get_successor_list", callee)) return std::nullopt;
  return n->successor_list();
}

void Network::apply_notify(ChordNode& n, const NodeId& candidate) {
  const auto& pred = n.predecessor();
  if (!pred || in_open_arc(candidate, *pred, n.id()) ||
      find_alive(*pred) == nullptr) {
    n.set_predecessor(candidate);
  }
}

void Network::deliver_delayed() {
  // Entries are appended in (round, seq) order, so the queue is already
  // sorted; everything from a round before the current one is due.
  std::size_t delivered = 0;
  while (delivered < delayed_.size() &&
         delayed_[delivered].round < round_) {
    const DelayedNotify& d = delayed_[delivered];
    ++delivered;
    ChordNode* n = find_alive(d.callee);
    if (n == nullptr) continue;  // callee died while the message aged
    apply_notify(*n, d.candidate);
    if (trace_) {
      trace_->instant("notify_delivered", "fault",
                      {{"callee", d.callee.to_short_hex()},
                       {"candidate", d.candidate.to_short_hex()},
                       {"sent_round", d.round}});
    }
  }
  delayed_.erase(delayed_.begin(),
                 delayed_.begin() + static_cast<std::ptrdiff_t>(delivered));
}

bool Network::rpc_notify(const NodeId& callee, const NodeId& candidate) {
  // A dropped notify never reaches the callee.  A delayed one DOES take
  // effect, but late: the caller cannot observe the ack in time, and the
  // predecessor update lands at the start of the next maintenance round
  // via the deterministic delayed-delivery queue.
  post(&MessageStats::notify, "notify", callee);
  if (dropped("notify", callee)) return false;
  ChordNode* n = find_alive(callee);
  if (n == nullptr) return false;
  if (late("notify", callee)) {
    delayed_.push_back({round_, delayed_seq_++, callee, candidate});
    return false;
  }
  apply_notify(*n, candidate);
  return true;
}

bool Network::rpc_ping(const NodeId& callee) {
  // Unlike the other counted RPCs, ping rolls the delay before the
  // liveness check, so a dead callee still draws it: a dropped request
  // and a delayed reply both read as "no answer".
  post(&MessageStats::ping, "ping", callee);
  if (dropped("ping", callee) || late("ping", callee)) return false;
  return find_alive(callee) != nullptr;
}

std::optional<NodeId> Network::rpc_closest_preceding(const NodeId& callee,
                                                     const NodeId& key) {
  // No post here (lookup() accounts the routing step, and nothing is
  // duplicated), but the wire can still lose the exchange.
  trace_rpc("closest_preceding", callee);
  if (dropped("closest_preceding", callee) ||
      late("closest_preceding", callee)) {
    return std::nullopt;
  }
  ChordNode* n = find_alive(callee);
  if (n == nullptr) return std::nullopt;
  // Skip over entries we can locally see are dead — models the callee
  // retrying its next-best pointer after a timeout.
  NodeId candidate = n->closest_preceding(key);
  while (candidate != n->id() && find_alive(candidate) == nullptr) {
    ++stats_.ping;  // the failed attempt costs a message
    n->forget(candidate);
    candidate = n->closest_preceding(key);
  }
  return candidate;
}

void Network::stabilize_node(ChordNode& n) {
  // Find the first live successor, pruning dead ones.
  while (true) {
    const NodeId succ = n.successor();
    if (succ == n.id()) break;
    if (rpc_ping(succ)) break;
    n.remove_successor(succ);
    if (n.successor_list().empty()) {
      // Lost every successor: fall back to self; fingers may still route.
      n.set_successor(n.id());
      break;
    }
  }

  NodeId succ = n.successor();
  if (succ == n.id()) {
    // Pointing at ourselves but maybe not alone: someone who joined
    // behind us announces itself via notify, so the predecessor is the
    // first escape hatch; fingers are the fallback.
    const auto& pred = n.predecessor();
    if (pred && *pred != n.id() && rpc_ping(*pred)) {
      n.set_successor(*pred);
      succ = *pred;
    } else {
      for (const auto& finger : n.fingers()) {
        if (finger && *finger != n.id() && rpc_ping(*finger)) {
          n.set_successor(*finger);
          succ = *finger;
          break;
        }
      }
    }
    if (succ == n.id()) return;  // genuinely alone; leave state untouched
  }

  // stabilize(): adopt successor's predecessor if it sits between us.
  const auto pred_of_succ = rpc_get_predecessor(succ);
  if (pred_of_succ && *pred_of_succ) {
    const NodeId x = **pred_of_succ;
    if (x != n.id() && in_open_arc(x, n.id(), succ) && rpc_ping(x)) {
      n.set_successor(x);
      succ = x;
    }
  }

  rpc_notify(succ, n.id());

  // Successor-list reconciliation: our list = successor + its list[0..r-2].
  if (auto list = rpc_get_successor_list(succ)) {
    std::vector<NodeId> merged;
    merged.push_back(succ);
    for (const auto& s : *list) {
      if (merged.size() >= n.successor_list_capacity()) break;
      if (s != n.id() && s != succ) merged.push_back(s);
    }
    n.set_successor_list(std::move(merged));
  }
}

void Network::fix_finger(ChordNode& n) {
  const int i = n.next_finger_to_fix();
  const LookupResult res = lookup(n.id(), n.finger_start(i));
  n.set_finger(i, res.owner);
}

void Network::check_predecessor(ChordNode& n) {
  const auto& pred = n.predecessor();
  if (pred && *pred != n.id() && !rpc_ping(*pred)) {
    n.set_predecessor(std::nullopt);
  }
}

}  // namespace dhtlb::chord
