#include "sim/audit.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "support/ring_math.hpp"

namespace dhtlb::sim {

namespace {

// Small helper so each check reads as: fail(report, "check", stream...).
template <typename Fn>
void fail(AuditReport& report, const char* check, Fn&& write_detail) {
  std::ostringstream os;
  write_detail(os);
  report.failures.push_back(AuditFailure{check, os.str()});
}

}  // namespace

std::string AuditReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) os << '\n';
    os << failures[i].check << ": " << failures[i].detail;
  }
  return os.str();
}

AuditReport InvariantAuditor::run() const {
  AuditReport report;
  check_index_integrity(report);
  check_ring_order(report);
  check_key_partition(report);
  check_successor_lists(report);
  check_sybil_ownership(report);
  check_workload_cache(report);
  check_membership(report);
  check_conservation(report);
  return report;
}

void InvariantAuditor::check_index_integrity(AuditReport& report) const {
  if (!world_.ring_index_consistent()) {
    fail(report, "index-integrity", [](std::ostream& os) {
      os << "flat ring index inconsistent (sortedness, block sizes or "
            "summary, or slot-arena cross-references)";
    });
  }
}

void InvariantAuditor::check_ring_order(AuditReport& report) const {
  const auto ids = world_.ring_ids();
  const std::size_t n = ids.size();
  if (n == 0) {
    fail(report, "ring-order", [](std::ostream& os) { os << "empty ring"; });
    return;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!(ids[i] < ids[i + 1])) {
      fail(report, "ring-order", [&](std::ostream& os) {
        os << "ids not strictly ascending at position " << i << ": "
           << ids[i].to_short_hex() << " !< " << ids[i + 1].to_short_hex();
      });
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Uint160 expected_pred = ids[(i + n - 1) % n];
    const ArcView arc = world_.arc_of(ids[i]);
    if (arc.pred != expected_pred) {
      fail(report, "ring-order", [&](std::ostream& os) {
        os << "vnode " << ids[i].to_short_hex() << " reports predecessor "
           << arc.pred.to_short_hex() << ", ring order says "
           << expected_pred.to_short_hex();
      });
    }
    // A lookup for a vnode's own ID must land exactly on that vnode.
    if (world_.arc_covering(ids[i]).id != ids[i]) {
      fail(report, "ring-order", [&](std::ostream& os) {
        os << "lookup for vnode " << ids[i].to_short_hex()
           << " lands on a different vnode";
      });
    }
  }
}

void InvariantAuditor::check_key_partition(AuditReport& report) const {
  if (world_.vnode_count() <= 1) return;  // a single vnode owns everything
  world_.for_each_arc([&](const ArcView& arc,
                          const std::vector<TaskKey>& keys) {
    const Uint160& id = arc.id;
    for (const TaskKey& key : keys) {
      if (!support::in_half_open_arc(key, arc.pred, arc.id)) {
        fail(report, "key-partition", [&](std::ostream& os) {
          os << "key " << key.to_short_hex() << " stored on vnode "
             << id.to_short_hex() << " lies outside its arc ("
             << arc.pred.to_short_hex() << ", " << arc.id.to_short_hex()
             << "]";
        });
        break;  // one offending key per vnode keeps the report readable
      }
    }
  });
}

void InvariantAuditor::check_successor_lists(AuditReport& report) const {
  const auto ids = world_.ring_ids();
  const std::size_t n = ids.size();
  if (n == 0) return;
  const std::size_t k = std::max<std::size_t>(1, world_.params().num_successors);
  const std::size_t expected_len = std::min(k, n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Walk both lists, noting the first entry off ring order.
    std::size_t bad = expected_len;
    std::size_t succs = 0;
    for (const ArcView& arc : world_.successor_arcs(ids[i], k)) {
      if (succs < expected_len && arc.id != ids[(i + 1 + succs) % n]) {
        bad = std::min(bad, succs);
      }
      ++succs;
    }
    std::size_t preds = 0;
    for (const ArcView& arc : world_.predecessor_arcs(ids[i], k)) {
      if (preds < expected_len && arc.id != ids[(i + n - 1 - preds) % n]) {
        bad = std::min(bad, preds);
      }
      ++preds;
    }
    if (succs != expected_len || preds != expected_len) {
      fail(report, "successor-lists", [&](std::ostream& os) {
        os << "vnode " << ids[i].to_short_hex() << " has " << succs
           << " successors / " << preds << " predecessors, expected "
           << expected_len;
      });
    } else if (bad != expected_len) {
      fail(report, "successor-lists", [&](std::ostream& os) {
        os << "vnode " << ids[i].to_short_hex() << " list entry " << bad
           << " disagrees with ring order";
      });
    }
  }
}

void InvariantAuditor::check_sybil_ownership(AuditReport& report) const {
  const std::size_t physicals = world_.physical_count();
  world_.for_each_arc([&](const ArcView& arc) {
    const Uint160& id = arc.id;
    if (arc.owner >= physicals) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "vnode " << id.to_short_hex() << " owner index " << arc.owner
           << " out of range (" << physicals << " physical nodes)";
      });
      return;
    }
    if (!world_.is_alive(arc.owner)) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << (arc.is_sybil ? "sybil" : "primary") << " vnode "
           << id.to_short_hex() << " owned by dead node " << arc.owner;
      });
    }
    const std::vector<Slot>& slots = world_.physical(arc.owner).vnode_slots;
    const auto listed =
        std::count_if(slots.begin(), slots.end(),
                      [&](Slot s) { return world_.vnode_id(s) == id; });
    if (listed != 1) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "vnode " << id.to_short_hex() << " listed " << listed
           << " times by its owner " << arc.owner << " (expected once)";
      });
    } else {
      const bool is_primary = world_.vnode_id(slots.front()) == id;
      if (arc.is_sybil == is_primary) {
        fail(report, "sybil-ownership", [&](std::ostream& os) {
          os << "vnode " << id.to_short_hex() << " is_sybil flag disagrees"
             << " with its position in owner " << arc.owner << "'s list";
        });
      }
    }
  });
  // Every listed slot must be a live vnode owned by its lister: one ring
  // search per vnode.  A freed slot left in a list fails here.
  for (const NodeIndex idx : world_.alive_indices()) {
    const std::vector<Slot>& slots = world_.physical(idx).vnode_slots;
    if (slots.empty()) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "alive node " << idx << " has no primary vnode";
      });
      continue;
    }
    for (const Slot slot : slots) {
      if (!world_.vnode_live(slot)) {
        fail(report, "sybil-ownership", [&](std::ostream& os) {
          os << "node " << idx << " lists slot " << slot
             << ", which holds no vnode in the ring";
        });
      } else if (world_.vnode_owner(slot) != idx) {
        fail(report, "sybil-ownership", [&](std::ostream& os) {
          os << "node " << idx << " lists vnode "
             << world_.vnode_id(slot).to_short_hex() << " owned by node "
             << world_.vnode_owner(slot) << " (duplicated arc)";
        });
      }
    }
    if (world_.sybil_count(idx) > world_.sybil_cap(idx)) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "node " << idx << " holds " << world_.sybil_count(idx)
           << " sybils, above its cap of " << world_.sybil_cap(idx);
      });
    }
  }
  for (const NodeIndex idx : world_.waiting_indices()) {
    const PhysicalNode& node = world_.physical(idx);
    if (!node.vnode_slots.empty() || node.workload != 0) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "waiting node " << idx << " still holds "
           << node.vnode_slots.size() << " vnodes / " << node.workload
           << " tasks";
      });
    }
  }
}

void InvariantAuditor::check_workload_cache(AuditReport& report) const {
  std::vector<std::uint64_t> per_owner(world_.physical_count(), 0);
  world_.for_each_arc([&](const ArcView& arc) {
    if (arc.owner < per_owner.size()) per_owner[arc.owner] += arc.task_count;
  });
  for (std::size_t i = 0; i < per_owner.size(); ++i) {
    const auto idx = static_cast<NodeIndex>(i);
    if (world_.physical(idx).workload != per_owner[i]) {
      fail(report, "workload-cache", [&](std::ostream& os) {
        os << "node " << i << " caches workload "
           << world_.physical(idx).workload << ", ring holds "
           << per_owner[i];
      });
    }
  }
}

void InvariantAuditor::check_membership(AuditReport& report) const {
  const std::size_t physicals = world_.physical_count();
  if (world_.alive_indices().size() + world_.waiting_indices().size() !=
      physicals) {
    fail(report, "membership", [&](std::ostream& os) {
      os << world_.alive_indices().size() << " alive + "
         << world_.waiting_indices().size() << " waiting != " << physicals
         << " physical nodes";
    });
  }
  // Duplicate-membership probe: insert() results only, never iterated.
  // dhtlb:lint-allow(unordered-iteration)
  std::unordered_set<NodeIndex> seen;
  auto visit = [&](const std::vector<NodeIndex>& list, const char* label) {
    for (const NodeIndex idx : list) {
      if (idx >= physicals) {
        fail(report, "membership", [&](std::ostream& os) {
          os << label << " list holds out-of-range index " << idx;
        });
        continue;
      }
      if (!seen.insert(idx).second) {
        fail(report, "membership", [&](std::ostream& os) {
          os << "node " << idx << " appears in both membership lists";
        });
      }
    }
  };
  visit(world_.alive_indices(), "alive");
  visit(world_.waiting_indices(), "waiting");
  // is_alive() and the parallel tick engine's shard partition read the
  // position/home-shard indexes; a stale entry would silently misreport
  // aliveness or reorder or drop nodes from a shard, so the indexes are
  // audited like the ring.
  if (!world_.alive_index_consistent()) {
    fail(report, "membership", [](std::ostream& os) {
      os << "alive-position or home-shard cache disagrees with the alive "
            "list (see World::alive_index_consistent)";
    });
  }
}

void InvariantAuditor::check_conservation(AuditReport& report) const {
  std::uint64_t stored = 0;
  world_.for_each_arc(
      [&](const ArcView& arc) { stored += arc.task_count; });
  if (stored != world_.remaining_tasks()) {
    fail(report, "conservation", [&](std::ostream& os) {
      os << "ring stores " << stored << " tasks, world reports "
         << world_.remaining_tasks() << " remaining";
    });
  }
}

}  // namespace dhtlb::sim
