// Active-backup replication model (§IV-A / §V).
//
// The paper assumes "nodes are active and aggressive in creating and
// monitoring the backups", replicating every key to `replication`
// successors so that "a node suddenly dying is of minimal impact".  The
// tick simulator takes that as given (tasks teleport to the successor);
// this module makes the assumption explicit and falsifiable:
//
//  * keys are replicated on their primary (ring successor) plus the
//    next replication-1 nodes clockwise; all keys of one arc share
//    those holders, so state is one Record per holder set, not per key;
//  * failures destroy a node's copies (O(records)); a key whose whole
//    replica set is destroyed before a repair cycle runs is LOST;
//  * repair(), one sweep over the keys in ring order, re-replicates
//    under-replicated keys, counting every copy transferred — the
//    maintenance traffic the §VI-A footnote warns "makes any amount of
//    churn after a certain point prohibitively expensive".
//
// Tests pin the survivability bound (r-1 adjacent simultaneous failures
// survivable, r not) and the bench tableB quantifies repair traffic as
// a function of churn rate.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "support/uint160.hpp"

namespace dhtlb::sim {

class BackupRing {
 public:
  using Id = support::Uint160;

  /// Creates a ring over distinct node IDs with the given replication
  /// factor (total copies per key, >= 1).  Throws std::invalid_argument
  /// on an empty node set, duplicate IDs, or replication == 0.
  BackupRing(std::vector<Id> nodes, std::size_t replication);

  /// Inserts a key: copies go to its primary (first node clockwise at or
  /// after the key) and the following replication-1 live successors.
  /// Throws std::logic_error with no live node, invalid_argument on a repeat.
  void add_key(const Id& key);

  /// Abrupt node failure: all copies it held vanish.  Keys whose last
  /// copy vanished are counted lost (and stay lost — matching a real
  /// system, repair cannot resurrect data).  Returns copies destroyed.
  std::uint64_t fail_node(const Id& node);

  /// A node (re)joins at `id`.  It holds no copies until repair runs —
  /// modelling the window between membership change and backup
  /// convergence.  Returns false if the ID is already present.
  bool join_node(const Id& id);

  /// One active-backup maintenance cycle: every surviving key is
  /// re-replicated onto its current primary + successors, and copies
  /// that now sit on wrong nodes (stale after membership changes) are
  /// dropped.  Returns the number of copies transferred (the traffic).
  std::uint64_t repair();

  std::uint64_t total_keys() const { return keys_.size(); }
  std::uint64_t lost_keys() const { return lost_; }
  /// True iff at least one copy of the key survives.
  bool key_alive(const Id& key) const;
  /// Copies currently held of a key (0 if lost or unknown).
  std::size_t copies_of(const Id& key) const;
  std::size_t live_nodes() const;

 private:
  struct Record {  // one holder set and its key count; no holders = lost
    std::vector<Id> holders;
    std::uint64_t keys = 0;
  };

  /// The replica targets of a key whose primary is `primary`.
  std::vector<Id> targets_from(std::set<Id>::const_iterator primary) const;

  std::set<Id> nodes_;  // live node IDs (dead entries pruned)
  std::size_t replication_;
  std::map<Id, std::size_t> keys_;  // key -> index into records_
  std::vector<Record> records_{1};  // [0]: the keys a repair found lost
  std::uint64_t lost_ = 0;
};

}  // namespace dhtlb::sim
