#include "chord/compute.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chord/sybil_placement.hpp"
#include "hashing/sha1.hpp"
#include "lb/factory.hpp"
#include "lb/rules.hpp"
#include "sim/world.hpp"
#include "support/check.hpp"
#include "support/ring_math.hpp"
#include "support/rng.hpp"

namespace dhtlb::chord {

namespace {

using sim::NodeIndex;

/// How a strategy with a protocol form places a Sybil.
enum class Placement { kNone, kRandom, kNeighbor };

/// The protocol form of strategy-table row `name`: the rows without a
/// decision round place nothing, and the random and estimating neighbor
/// rules have the hash-based placements below.  Every other row throws.
Placement protocol_form(std::string_view name) {
  if (const lb::StrategyEntry* entry = lb::find_strategy(name)) {
    if (entry->rule == nullptr) return Placement::kNone;
    if (entry->rule == &lb::random_injection) return Placement::kRandom;
    if (entry->rule == &lb::neighbor_injection &&
        entry->param == lb::kEstimate) {
      return Placement::kNeighbor;
    }
  }
  throw std::invalid_argument(
      "run_compute: strategy '" + std::string(name) +
      "' has no protocol form (expected none, churn, random-injection or "
      "neighbor-injection)");
}

/// The widest gap between consecutive entries of `self`'s successor
/// list (starting at `self`): purely local protocol state.
std::pair<NodeId, NodeId> widest_gap(const NodeId& self,
                                     const std::vector<NodeId>& list) {
  std::pair<NodeId, NodeId> best{self, list.front()};
  for (std::size_t s = 1; s < list.size(); ++s) {
    if (support::clockwise_distance(list[s - 1], list[s]) >
        support::clockwise_distance(best.first, best.second)) {
      best = {list[s - 1], list[s]};
    }
  }
  return best;
}

}  // namespace

ComputeResult run_compute(const sim::Params& params, std::string_view strategy,
                          std::uint64_t seed) {
  const Placement placement = protocol_form(strategy);
  params.validate();
  if (params.provisioning == sim::TaskProvisioning::kStreamed) {
    throw std::invalid_argument(
        "run_compute: provisioning streamed has no protocol form (the ring "
        "would start with no tasks)");
  }
  if (params.mark_failed_ranges) {
    throw std::invalid_argument(
        "run_compute: mark-failed-ranges true has no protocol form");
  }
  if (params.initial_nodes > kMaxBootstrapNodes) {
    throw std::invalid_argument("run_compute: nodes " +
                                std::to_string(params.initial_nodes) +
                                " exceeds the chord bootstrap limit " +
                                std::to_string(kMaxBootstrapNodes));
  }

  // The data plane draws the node IDs, then the task keys, from the
  // run's one RNG; the protocol bootstrap below draws nothing.
  support::Rng rng(seed);
  sim::World world(params, rng);
  Network net(params.num_successors);
  ComputeResult result;
  sim::StrategyCounters counters;

  auto primary_id = [&](NodeIndex idx) {
    return world.vnode_id(world.primary_slot(idx));
  };
  // The first alive node in index order introduces every joiner.
  auto any_alive = [&] {
    const auto& alive = world.alive_indices();
    return primary_id(*std::min_element(alive.begin(), alive.end()));
  };
  // Joins `id` through the protocol, then `admit`s it to the world (which
  // holds exactly the network's IDs, so it is free there too).
  auto protocol_join = [&](const NodeId& id, auto admit) {
    if (!net.join(id, any_alive())) return false;
    net.stabilize(2);  // settle enough for pointers to be usable
    const std::optional<std::uint64_t> acquired = admit();
    DHTLB_CHECK(acquired, "run_compute: the world holds " << id);
    result.tasks_transferred += *acquired;
    return true;
  };

  // --- membership bootstrap (protocol joins, costed) ---------------------
  std::vector<NodeId> ids(params.initial_nodes);
  for (NodeIndex idx = 0; idx < ids.size(); ++idx) ids[idx] = primary_id(idx);
  net.bootstrap(ids, 4);

  const std::uint64_t capacity = world.initial_capacity();
  result.ideal_ticks = (world.total_tasks() + capacity - 1) / capacity;
  const std::uint64_t cap = params.effective_max_ticks(result.ideal_ticks);
  const auto physicals = static_cast<NodeIndex>(world.physical_count());

  for (std::uint64_t tick = 1; tick <= cap && world.remaining_tasks() > 0;
       ++tick) {
    result.ticks = tick;

    // 1. churn: abrupt failures + protocol re-joins.
    for (NodeIndex idx = 0; idx < physicals; ++idx) {
      if (world.is_alive(idx)) {
        const auto& slots = world.physical(idx).vnode_slots;
        if (world.vnode_count() - slots.size() < 2) continue;  // keep a ring
        if (!rng.bernoulli(params.churn_rate)) continue;
        // Abrupt: peers discover the failure via maintenance.
        for (const sim::Slot slot : slots) net.fail(world.vnode_id(slot));
        result.tasks_transferred += world.workload(idx);
        DHTLB_CHECK(world.depart(idx), "run_compute: node " << idx);
        ++result.failures;
      } else if (rng.bernoulli(params.churn_rate)) {
        const NodeId id = hashing::Sha1::hash_u64(rng());
        if (protocol_join(id, [&] { return world.join_at(idx, id); })) {
          ++result.joins;
        }
      }
    }

    // 2. Sybil decisions (every decision_period ticks).
    if (placement != Placement::kNone &&
        tick % params.decision_period == 0) {
      for (NodeIndex idx = 0; idx < physicals; ++idx) {
        if (!world.is_alive(idx)) continue;
        // An idle node's Sybils leave gracefully, newest first.
        const auto& slots = world.physical(idx).vnode_slots;
        if (world.workload(idx) == 0) {
          for (auto s = slots.rbegin(); s + 1 < slots.rend(); ++s) {
            net.leave(world.vnode_id(*s));
          }
        }
        lb::retire_idle_sybils(world, idx, counters);
        if (!lb::may_create_sybil(world, idx)) continue;

        NodeId id;
        if (placement == Placement::kRandom) {
          id = hashing::Sha1::hash_u64(rng());
          ++result.sybil_search_hashes;
        } else {
          // A hash search inside the widest gap of the successor list.
          const NodeId self = primary_id(idx);
          const auto& list = net.node(self).successor_list();
          if (list.empty()) continue;
          const auto [lo, hi] = widest_gap(self, list);
          const auto found = place_by_hash_search(lo, hi, rng, 1 << 16);
          if (!found) continue;
          result.sybil_search_hashes += found->attempts;
          id = found->id;
        }
        if (protocol_join(id, [&] { return world.create_sybil(idx, id); })) {
          ++result.sybils_created;
        }
      }
    }

    // 3. maintenance (costed separately): one round per tick.
    const std::uint64_t before = net.stats().total();
    net.maintenance_round();
    result.maintenance_messages += net.stats().total() - before;

    // 4. consumption, in node index order.
    for (NodeIndex idx = 0; idx < physicals; ++idx) {
      if (!world.is_alive(idx)) continue;
      world.debit_remaining(
          world.consume_local(idx, world.work_per_tick(idx), rng));
    }
  }

  result.completed = world.remaining_tasks() == 0;
  result.messages = net.stats();
  result.runtime_factor = static_cast<double>(result.ticks) /
                          static_cast<double>(result.ideal_ticks);
  return result;
}

}  // namespace dhtlb::chord
