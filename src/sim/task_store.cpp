#include "sim/task_store.hpp"

#include <utility>

#include "support/check.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::sim {

TaskKey TaskStore::consume_random(support::Rng& rng) {
  DHTLB_CHECK(!keys_.empty(), "consume_random on an empty task store");
  const std::size_t idx =
      static_cast<std::size_t>(rng.below(keys_.size()));
  const TaskKey taken = keys_[idx];
  keys_[idx] = keys_.back();
  keys_.pop_back();
  return taken;
}

std::uint64_t TaskStore::split_arc_into(const TaskKey& lo, const TaskKey& hi,
                                        TaskStore& out) {
  std::uint64_t moved = 0;
  // Stable single pass: keep non-matching keys compacted in place.
  std::size_t write = 0;
  for (std::size_t read = 0; read < keys_.size(); ++read) {
    if (support::in_half_open_arc(keys_[read], lo, hi)) {
      out.keys_.push_back(keys_[read]);
      ++moved;
    } else {
      keys_[write++] = keys_[read];
    }
  }
  keys_.resize(write);
  // Capacity rule: a store left at most a quarter full drops the dead
  // capacity (an emptied one its whole buffer), so a wave of splits does
  // not leave every source holding its pre-split peak.
  if (keys_.empty()) {
    keys_ = std::vector<TaskKey>();
  } else if (keys_.size() <= keys_.capacity() / 4) {
    keys_.shrink_to_fit();
  }
  return moved;
}

std::uint64_t TaskStore::merge_from(TaskStore& other) {
  const std::uint64_t moved = other.keys_.size();
  keys_.insert(keys_.end(), other.keys_.begin(), other.keys_.end());
  other.keys_.clear();
  return moved;
}

}  // namespace dhtlb::sim
