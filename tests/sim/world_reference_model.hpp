// The brute-force reference model sim::World is checked against: the
// exact task keys, with ownership and workloads recomputed from first
// principles on every query (no incremental caches, no split/merge
// shortcuts), and each node's vnode list and aliveness as plain ordered
// data.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "sim/world.hpp"

namespace dhtlb::sim::testing {

/// Brute-force mirror: flat key multiset + vnode->owner map + each alive
/// node's ordered vnode list (primary first); every query is a full scan.
class ReferenceModel {
 public:
  /// A model of `world` as it stands: every vnode, in each node's slot
  /// order, and every key it holds.
  static ReferenceModel mirror(const World& world) {
    ReferenceModel ref;
    for (const NodeIndex idx : world.alive_indices()) {
      for (const Slot slot : world.physical(idx).vnode_slots) {
        ref.add_vnode(world.vnode_id(slot), idx);
        for (const auto& key : world.vnode_keys(slot)) ref.add_key(key);
      }
    }
    return ref;
  }

  /// Appends a vnode to `owner`'s list; the first one makes it alive.
  void add_vnode(const Uint160& id, NodeIndex owner) {
    vnodes_[id] = owner;
    lists_[owner].push_back(id);
  }
  void remove_sybils(NodeIndex owner) {
    std::vector<Uint160>& list = lists_.at(owner);
    for (std::size_t i = 1; i < list.size(); ++i) vnodes_.erase(list[i]);
    list.resize(1);
  }
  void depart(NodeIndex owner) {
    for (const Uint160& id : lists_.at(owner)) vnodes_.erase(id);
    lists_.erase(owner);
  }
  /// The vnode keeps its owner and its place in the owner's list.
  void move_vnode(const Uint160& old_id, const Uint160& new_id) {
    const NodeIndex owner = vnodes_.at(old_id);
    vnodes_.erase(old_id);
    vnodes_[new_id] = owner;
    for (Uint160& id : lists_.at(owner)) {
      if (id == old_id) id = new_id;
    }
  }
  void add_key(const Uint160& key) { keys_.insert(key); }

  bool alive(NodeIndex owner) const { return lists_.count(owner) != 0; }
  std::vector<Uint160> list(NodeIndex owner) const {
    const auto it = lists_.find(owner);
    return it == lists_.end() ? std::vector<Uint160>{} : it->second;
  }

  Uint160 owner_vnode(const Uint160& key) const {
    auto it = vnodes_.lower_bound(key);
    if (it == vnodes_.end()) it = vnodes_.begin();
    return it->first;
  }

  std::map<NodeIndex, std::uint64_t> owner_loads() const {
    std::map<NodeIndex, std::uint64_t> loads;
    for (const auto& key : keys_) {
      loads[vnodes_.at(owner_vnode(key))] += 1;
    }
    return loads;
  }

  std::multiset<Uint160> vnode_keys(const Uint160& vnode) const {
    std::multiset<Uint160> out;
    for (const auto& key : keys_) {
      if (owner_vnode(key) == vnode) out.insert(key);
    }
    return out;
  }

  std::uint64_t total_keys() const { return keys_.size(); }
  const std::map<Uint160, NodeIndex>& vnodes() const { return vnodes_; }

 private:
  std::map<Uint160, NodeIndex> vnodes_;
  std::map<NodeIndex, std::vector<Uint160>> lists_;
  std::multiset<Uint160> keys_;
};

}  // namespace dhtlb::sim::testing
