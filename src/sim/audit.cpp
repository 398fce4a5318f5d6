#include "sim/audit.hpp"

#include <sstream>

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
  const std::size_t n = world_.vnode_count();
  if (n == 0) {
    fail(report, "ring-order", [](std::ostream& os) { os << "empty ring"; });
    return;
  }
  // One counterclockwise walk of the whole ring from the first vnode,
  // then one ascending sweep.  reported[j] is the predecessor the walk's
  // j-th arc reports: that arc is sweep position n - 1 - j.  Position
  // 0's predecessor is the walk's start arc.  The walk starts from the
  // index's first entry, not from a slot, so a slot whose arena id
  // disagrees with the index is reported by index-integrity instead of
  // aborting the walk.
  const World::ArcWalk ccw = world_.walk_from_first(n, /*clockwise=*/false);
  std::vector<Uint160> reported;
  reported.reserve(n - 1);
  for (const ArcView& walked : ccw) reported.push_back(walked.pred);
  Uint160 first;
  Uint160 prev;
  std::size_t i = 0;
  auto check_pred = [&](const Uint160& id, const Uint160& pred,
                        const Uint160& expected_pred) {
    if (pred != expected_pred) {
      fail(report, "ring-order", [&](std::ostream& os) {
        os << "vnode " << id.to_short_hex() << " reports predecessor "
           << pred.to_short_hex() << ", ring order says "
           << expected_pred.to_short_hex();
      });
    }
  };
  world_.for_each_arc([&](const ArcView& arc) {
    const Uint160& id = arc.id;
    if (i == 0) {
      first = id;
    } else {
      if (!(prev < id)) {
        fail(report, "ring-order", [&](std::ostream& os) {
          os << "ids not strictly ascending at position " << i - 1 << ": "
             << prev.to_short_hex() << " !< " << id.to_short_hex();
        });
      }
      // A walk of the wrong length is successor-lists' finding; only
      // the steps it did take are read here.
      if (n - 1 - i < reported.size()) {
        check_pred(id, reported[n - 1 - i], prev);
      }
    }
    // A lookup for a vnode's own ID must land exactly on that vnode.
    if (world_.arc_covering(id).id != id) {
      fail(report, "ring-order", [&](std::ostream& os) {
        os << "lookup for vnode " << id.to_short_hex()
           << " lands on a different vnode";
      });
    }
    prev = id;
    ++i;
  });
  check_pred(first, ccw.start_arc().pred, prev);
}

void InvariantAuditor::check_key_partition(AuditReport& report) const {
  if (world_.vnode_count() <= 1) return;  // a single vnode owns everything
  world_.for_each_arc([&](const ArcView& arc) {
    const Uint160& id = arc.id;
    // A key whose top 64 bits lie strictly between those of the ends of
    // an arc that does not wrap is inside it; the rest take the exact
    // 160-bit test.
    const bool wraps = !(arc.pred < arc.id);
    const std::uint64_t low = arc.pred.high64();
    const std::uint64_t high = arc.id.high64();
    for (const TaskKey& key : world_.vnode_keys(arc.slot)) {
      const std::uint64_t top = key.high64();
      if (!wraps && low < top && top < high) continue;
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
  // Every k-list a strategy reads is an ArcWalk: a run of consecutive
  // next() (or prev()) steps from one vnode's cursor that stops after k
  // steps or when it wraps back to its start, whichever comes first.
  // So one whole-ring walk per direction, from the first vnode with
  // k = n, takes every step any list can take.  If each step lands on
  // the next id in ring order and each walk stops after exactly n - 1
  // steps (the wrap back to the start, never earlier or later), then
  // every vnode's list is the next min(k, n - 1) ids of ring order:
  // the §V-B length rule.  The walks start at the index's first entry,
  // not from a slot (see check_ring_order).
  const auto ids = world_.ring_ids();
  const std::size_t n = ids.size();
  if (n == 0) return;
  // Step j of the clockwise walk should land on ids[j], step j of the
  // counterclockwise one on ids[n - j].  Only the first step off ring
  // order is reported: every later step of that walk is misaligned and
  // would only repeat it.
  auto walk = [&](bool clockwise) {
    const World::ArcWalk arcs = world_.walk_from_first(n, clockwise);
    std::size_t steps = 0;
    bool off_order = false;
    for (const ArcView& arc : arcs) {
      ++steps;
      const std::size_t at = clockwise ? steps : n - steps;
      if (!off_order && steps < n && arc.id != ids[at]) {
        off_order = true;
        const Uint160& from = ids[clockwise ? at - 1 : (at + 1) % n];
        fail(report, "successor-lists", [&](std::ostream& os) {
          os << "vnode " << from.to_short_hex()
             << " list entry 0 disagrees with ring order";
        });
      }
    }
    return steps;
  };
  const std::size_t succs = walk(/*clockwise=*/true);
  const std::size_t preds = walk(/*clockwise=*/false);
  if (succs != n - 1 || preds != n - 1) {
    fail(report, "successor-lists", [&](std::ostream& os) {
      os << "vnode " << ids.front().to_short_hex() << " has " << succs
         << " successors / " << preds << " predecessors, expected " << n - 1;
    });
  }
}

void InvariantAuditor::check_sybil_ownership(AuditReport& report) const {
  const std::size_t physicals = world_.physical_count();
  const std::vector<std::uint8_t> live = world_.vnode_live_marks();
  // One pass over every owner list: listed[s] counts the entries naming
  // slot s in the list of the node its arena entry names as owner, and
  // primary[s] is set when s heads that list.  An arc then checks in
  // O(1); a listed slot past the live marks is the pass below's finding.
  std::vector<std::uint32_t> listed(live.size(), 0);
  std::vector<std::uint8_t> primary(live.size(), 0);
  for (NodeIndex idx = 0; idx < physicals; ++idx) {
    const std::vector<Slot>& slots = world_.physical(idx).vnode_slots;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot s = slots[i];
      if (s >= live.size() || world_.vnode_owner(s) != idx) continue;
      ++listed[s];
      if (i == 0) primary[s] = 1;
    }
  }
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
    if (listed[arc.slot] != 1) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "vnode " << id.to_short_hex() << " listed " << listed[arc.slot]
           << " times by its owner " << arc.owner << " (expected once)";
      });
    } else {
      const bool is_primary = primary[arc.slot] != 0;
      if (arc.is_sybil == is_primary) {
        fail(report, "sybil-ownership", [&](std::ostream& os) {
          os << "vnode " << id.to_short_hex() << " is_sybil flag disagrees"
             << " with its position in owner " << arc.owner << "'s list";
        });
      }
    }
  });
  // Every listed slot must be a live vnode owned by its lister, read
  // from the live marks.  A freed slot left in a list fails here.
  for (const NodeIndex idx : world_.alive_indices()) {
    const std::vector<Slot>& slots = world_.physical(idx).vnode_slots;
    if (slots.empty()) {
      fail(report, "sybil-ownership", [&](std::ostream& os) {
        os << "alive node " << idx << " has no primary vnode";
      });
      continue;
    }
    for (const Slot slot : slots) {
      if (slot >= live.size() || live[slot] == 0) {
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
  std::vector<std::uint8_t> seen(physicals, 0);
  auto visit = [&](const std::vector<NodeIndex>& list, const char* label) {
    for (const NodeIndex idx : list) {
      if (idx >= physicals) {
        fail(report, "membership", [&](std::ostream& os) {
          os << label << " list holds out-of-range index " << idx;
        });
        continue;
      }
      if (seen[idx] != 0) {
        fail(report, "membership", [&](std::ostream& os) {
          os << "node " << idx << " appears in both membership lists";
        });
      }
      seen[idx] = 1;
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
