// Runtime invariant auditor for the simulated Chord ring.
//
// The paper's results are only as trustworthy as the ring they are
// measured on: an overlapping arc, an orphaned key, or a stale Sybil
// owner would silently skew every workload histogram and runtime
// factor.  The auditor re-derives the ring's global invariants from
// scratch (no trust in cached state) and reports every violation with
// enough context to localize it — vnode ID, owner index, task key.
//
// Checks (names are stable; tests match on them):
//   index-integrity  the flat ring's own bookkeeping is sound: sorted
//                    blocks within capacity, block summary ids, live
//                    count, and slot-arena cross-references (see FlatRing)
//   ring-order       vnode IDs strictly ascending mod 2^160; each arc's
//                    predecessor edge agrees with ring order; a lookup
//                    for a vnode's own ID lands on that vnode
//   key-partition    every task key lies in its owning vnode's arc
//                    (pred, id] — together with uniqueness of storage
//                    this is exact key-partition coverage
//   successor-lists  successor_arcs / predecessor_arcs — the walks the
//                    strategies read — agree with the ring order and
//                    stop after min(k, n - 1) steps (§V-B): checked by
//                    one whole-ring walk per direction
//   sybil-ownership  every vnode's owner is alive and lists it exactly
//                    once; is_sybil matches list position; every slot a
//                    node lists is a live vnode, indexed under its own
//                    id and owned by that node; Sybil count respects
//                    maxSybils / strength; waiting nodes hold nothing
//   workload-cache   each physical node's cached workload equals the
//                    sum over its vnodes' task stores
//   membership       alive_ and waiting_ partition the physical
//                    population; the alive-position index behind
//                    is_alive and the cached home shards agree with
//                    alive_
//   conservation     tasks stored in the ring == remaining task count
//
// Cost model: every check is an ordered pass over the ring, its keys or
// the physical population, O(ring + keys) per audit with no per-vnode
// search.  The one exception is ring-order's point lookup per vnode,
// since "a lookup for a vnode's own ID lands on it" is the invariant it
// tests.  Nothing is cached between audits.
//
// In audit builds (-DDHTLB_AUDIT=ON) sim::Engine runs the full audit
// after every tick and aborts with the offending tick + seed on the
// first violation; tests run InvariantAuditor(world).run() directly.
#pragma once

#include <string>
#include <vector>

#include "sim/world.hpp"

namespace dhtlb::sim {

/// One violated invariant.
struct AuditFailure {
  std::string check;   // stable check name, e.g. "key-partition"
  std::string detail;  // human-readable context (vnode id, owner, key)
};

/// Everything one audit pass found.
struct AuditReport {
  std::vector<AuditFailure> failures;

  bool ok() const { return failures.empty(); }

  /// "check: detail" per line; empty string when clean.
  std::string to_string() const;
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const World& world) : world_(world) {}

  /// Runs every check and returns the combined report.
  AuditReport run() const;

  // Individual checks append their findings; exposed so tests can pin a
  // seeded corruption to the exact check that must catch it.
  void check_index_integrity(AuditReport& report) const;
  void check_ring_order(AuditReport& report) const;
  void check_key_partition(AuditReport& report) const;
  void check_successor_lists(AuditReport& report) const;
  void check_sybil_ownership(AuditReport& report) const;
  void check_workload_cache(AuditReport& report) const;
  void check_membership(AuditReport& report) const;
  void check_conservation(AuditReport& report) const;

 private:
  const World& world_;
};

}  // namespace dhtlb::sim
