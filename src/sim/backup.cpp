#include "sim/backup.hpp"

#include <algorithm>
#include <stdexcept>

namespace dhtlb::sim {

BackupRing::BackupRing(std::vector<Id> nodes, std::size_t replication)
    : replication_(replication) {
  if (nodes.empty()) {
    throw std::invalid_argument("BackupRing: need at least one node");
  }
  if (replication == 0) {
    throw std::invalid_argument("BackupRing: replication must be >= 1");
  }
  for (const auto& id : nodes) {
    if (!nodes_.insert(id).second) {
      throw std::invalid_argument("BackupRing: duplicate node ID");
    }
  }
}

std::vector<BackupRing::Id> BackupRing::targets_from(
    std::set<Id>::const_iterator primary) const {
  if (primary == nodes_.end()) primary = nodes_.begin();
  std::vector<Id> holders;
  const std::size_t want = std::min(replication_, nodes_.size());
  while (holders.size() < want) {
    holders.push_back(*primary);
    if (++primary == nodes_.end()) primary = nodes_.begin();
  }
  return holders;
}

void BackupRing::add_key(const Id& key) {
  if (nodes_.empty()) {
    throw std::logic_error("BackupRing: add_key with no live node");
  }
  if (!keys_.emplace(key, records_.size()).second) {
    throw std::invalid_argument("BackupRing: key already added");
  }
  records_.push_back({targets_from(nodes_.lower_bound(key)), 1});
}

std::uint64_t BackupRing::fail_node(const Id& node) {
  if (nodes_.erase(node) == 0) return 0;
  std::uint64_t destroyed = 0;
  for (auto& record : records_) {
    if (std::erase(record.holders, node) == 0) continue;
    destroyed += record.keys;
    if (record.holders.empty()) lost_ += record.keys;
  }
  return destroyed;
}

bool BackupRing::join_node(const Id& id) { return nodes_.insert(id).second; }

std::uint64_t BackupRing::repair() {
  // One ordered sweep over keys and nodes builds each arc's targets once,
  // into its record (keys past the last node reuse the first node's,
  // `wrap`).  A run from one old record into one arc is priced once.
  std::vector<Record> next(1);
  auto primary = nodes_.begin();
  std::size_t arc = 0, wrap = 0, run_old = 0;  // 0 = none
  std::uint64_t transfers = 0, run_cost = 0;
  for (auto& [key, index] : keys_) {
    const std::vector<Id>& held = records_[index].holders;
    std::size_t to = 0;  // lost keys stay lost: repair cannot resurrect
    if (!held.empty()) {
      for (; primary != nodes_.end() && *primary < key; ++primary) {
        arc = run_old = 0;
      }
      if (arc == 0 && primary == nodes_.end()) arc = wrap;
      if (arc == 0) {
        next.push_back({targets_from(primary), 0});
        arc = next.size() - 1;
        if (primary == nodes_.begin()) wrap = arc;
      }
      if (index != run_old) {  // each missing target is one transfer
        run_old = index;
        run_cost = 0;
        for (const auto& target : next[arc].holders) {
          run_cost += std::find(held.begin(), held.end(), target) == held.end();
        }
      }
      transfers += run_cost;
      to = arc;
    }
    ++next[to].keys;
    index = to;
  }
  records_ = std::move(next);
  return transfers;
}

bool BackupRing::key_alive(const Id& key) const { return copies_of(key) > 0; }

std::size_t BackupRing::copies_of(const Id& key) const {
  const auto it = keys_.find(key);
  return it == keys_.end() ? 0 : records_[it->second].holders.size();
}

std::size_t BackupRing::live_nodes() const { return nodes_.size(); }

}  // namespace dhtlb::sim
