// Per-virtual-node task storage and the arc split/merge primitives.
//
// Every task is an explicit 160-bit key, so ownership transfers on
// join/leave/Sybil-injection are *exact*: the keys that move are exactly
// those falling in the new ownership arc, just as in a real DHT with the
// paper's active-backup model.  Keys are stored unsorted; consumption
// removes a uniformly random key (keeping the remaining set a uniform
// sample of the arc), and splits partition in O(n) — cheap because splits
// are rare relative to consumption.
//
// Capacity rule: a store grows by doubling, and a split that leaves its
// source holding at most a quarter of its capacity shrinks the source to
// fit; a split that empties the source releases its buffer.  Every
// Sybil and every join splits a neighbour's arc, so without the rule a
// split-heavy run keeps each source's pre-split peak allocated.  The
// rule moves no key: key order on both sides is what the split loop
// leaves.  Consumption never shrinks a store.
//
// A store never knows *when* its keys were materialized: preallocated
// runs fill every store at world construction, streamed runs
// (sim/task_stream.hpp) add keys tick by tick as they arrive.  Both
// modes meet the same exact-key semantics here — see DESIGN.md §0 for
// the life of a tick and where arrivals land in it.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {

using TaskKey = support::Uint160;

/// Unordered multiset of task keys owned by one virtual node.
class TaskStore {
 public:
  std::uint64_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  void add(TaskKey key) { keys_.push_back(key); }
  void reserve(std::size_t n) { keys_.reserve(n); }

  /// Removes and returns one uniformly random key.  Precondition: not
  /// empty.  (Which task a node works on first is unspecified in the
  /// paper; uniform choice keeps the remaining keys unbiased within the
  /// arc, so later splits stay faithful.)
  TaskKey consume_random(support::Rng& rng);

  /// Moves every key lying in the half-open ring arc (lo, hi] into `out`,
  /// keeping the rest.  Returns the number of keys moved.  This is the
  /// ownership transfer that happens when a node/Sybil with ID `hi`
  /// joins in front of a node whose predecessor was `lo`.  Kept keys
  /// stay in order; moved keys are appended in store order.  Applies the
  /// capacity rule (file comment) to this store afterwards.
  std::uint64_t split_arc_into(const TaskKey& lo, const TaskKey& hi,
                               TaskStore& out);

  /// Appends all keys from `other`, leaving it empty — the successor
  /// absorbing a departed node's tasks (active backup, §IV-A).
  std::uint64_t merge_from(TaskStore& other);

  const std::vector<TaskKey>& keys() const { return keys_; }

 private:
  std::vector<TaskKey> keys_;
};

}  // namespace dhtlb::sim
