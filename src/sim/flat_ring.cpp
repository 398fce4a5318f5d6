#include "sim/flat_ring.hpp"

#include <algorithm>

#include "support/sorted_search.hpp"

namespace dhtlb::sim {

// --- search ---------------------------------------------------------------

std::size_t FlatRing::block_lower_bound(const Uint160& id) const {
  // Blocks cut the ring into roughly equal arcs, so the block of `id` is
  // interpolated over the whole ring.
  return support::interpolated_lower_bound(
      0, block_max_.size(), 0, ~std::uint64_t{0}, id,
      [this](std::size_t b) -> const Uint160& { return block_max_[b]; });
}

std::size_t FlatRing::pos_lower_bound(std::size_t b, const Uint160& id) const {
  const Block& block = blocks_[b];
  // The block spans ids in (block_max_[b-1], block_max_[b]].
  return support::interpolated_lower_bound(
      0, block.size(), b > 0 ? block_max_[b - 1].high64() : 0,
      block_max_[b].high64(), id,
      [&block](std::size_t i) -> const Uint160& { return block[i].id; });
}

FlatRing::Cursor FlatRing::lower_bound(const Uint160& id) const {
  const std::size_t b = block_lower_bound(id);
  if (b == blocks_.size()) return Cursor{b, 0};
  return Cursor{b, pos_lower_bound(b, id)};
}

bool FlatRing::contains(const Uint160& id) const {
  DHTLB_CHECK(!bulk_mode_, "FlatRing::contains during bulk load");
  const Cursor c = lower_bound(id);
  return c.block < blocks_.size() && id_at(c) == id;
}

bool FlatRing::is_live(Slot s) const {
  if (s >= ids_.size() || live_ == 0) return false;
  const Cursor c = cover(ids_[s]);
  return slot_at(c) == s && id_at(c) == ids_[s];
}

// --- cursors --------------------------------------------------------------

FlatRing::Cursor FlatRing::find(const Uint160& id) const {
  DHTLB_CHECK(!bulk_mode_, "FlatRing::find during bulk load");
  const Cursor c = lower_bound(id);
  DHTLB_CHECK(c.block < blocks_.size() && id_at(c) == id,
              "FlatRing::find: id " << id << " not in ring");
  return c;
}

FlatRing::Cursor FlatRing::cover(const Uint160& point) const {
  DHTLB_CHECK(!bulk_mode_, "FlatRing::cover during bulk load");
  DHTLB_CHECK(live_ > 0, "FlatRing::cover on empty ring");
  const Cursor c = lower_bound(point);
  if (c.block == blocks_.size()) return first();  // wrapped past the top
  return c;
}

FlatRing::Cursor FlatRing::first() const {
  DHTLB_CHECK(live_ > 0, "FlatRing::first on empty ring");
  return Cursor{};
}

FlatRing::Cursor FlatRing::last() const {
  DHTLB_CHECK(live_ > 0, "FlatRing::last on empty ring");
  return Cursor{blocks_.size() - 1, blocks_.back().size() - 1};
}

// --- slot arena -----------------------------------------------------------

Slot FlatRing::alloc_slot(const Uint160& id, NodeIndex owner, bool is_sybil) {
  Slot s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
    ids_[s] = id;
    owners_[s] = owner;
    sybils_[s] = is_sybil ? 1 : 0;
  } else {
    s = static_cast<Slot>(ids_.size());
    DHTLB_CHECK(s != kNoSlot, "FlatRing: slot arena exhausted");
    ids_.push_back(id);
    owners_.push_back(owner);
    sybils_.push_back(is_sybil ? 1 : 0);
    tasks_.emplace_back();
  }
  return s;
}

void FlatRing::free_slot(Slot s) {
  // Drop the bucket's capacity too: under churn a recycled slot's next
  // occupant usually holds far fewer keys than a departed node's peak.
  tasks_[s] = TaskStore{};
  free_slots_.push_back(s);
}

// --- mutation -------------------------------------------------------------

Slot FlatRing::insert(const Uint160& id, NodeIndex owner, bool is_sybil) {
  DHTLB_CHECK(!bulk_mode_, "FlatRing::insert during bulk load");
  if (blocks_.empty()) {
    const Slot slot = alloc_slot(id, owner, is_sybil);
    blocks_.push_back(Block{Entry{id, slot}});
    block_max_.push_back(id);
    ++live_;
    return slot;
  }
  std::size_t b = block_lower_bound(id);
  std::size_t pos;
  if (b == blocks_.size()) {
    b = blocks_.size() - 1;  // past every id: becomes the last block's max
    pos = blocks_[b].size();
  } else {
    pos = pos_lower_bound(b, id);
    DHTLB_ASSERT(!(blocks_[b][pos].id == id),
                 "FlatRing::insert: duplicate id " << id);
  }
  const Slot slot = alloc_slot(id, owner, is_sybil);
  Block& block = blocks_[b];
  block.insert(block.begin() + static_cast<std::ptrdiff_t>(pos),
               Entry{id, slot});
  if (pos + 1 == block.size()) block_max_[b] = id;
  ++live_;
  if (block.size() == kBlockCapacity) split_block(b);
  return slot;
}

void FlatRing::split_block(std::size_t b) {
  Block& lower = blocks_[b];
  const auto mid = lower.begin() + static_cast<std::ptrdiff_t>(lower.size() / 2);
  Block upper(mid, lower.end());
  lower.erase(mid, lower.end());
  block_max_[b] = lower.back().id;
  const auto at = static_cast<std::ptrdiff_t>(b + 1);
  block_max_.insert(block_max_.begin() + at, upper.back().id);
  blocks_.insert(blocks_.begin() + at, std::move(upper));
}

void FlatRing::erase(const Uint160& id) {
  DHTLB_CHECK(!bulk_mode_, "FlatRing::erase during bulk load");
  const Cursor c = lower_bound(id);
  DHTLB_CHECK(c.block < blocks_.size() && id_at(c) == id,
              "FlatRing::erase: id " << id << " not in ring");
  Block& block = blocks_[c.block];
  free_slot(block[c.pos].slot);
  block.erase(block.begin() + static_cast<std::ptrdiff_t>(c.pos));
  --live_;
  if (block.empty()) {
    const auto at = static_cast<std::ptrdiff_t>(c.block);
    blocks_.erase(blocks_.begin() + at);
    block_max_.erase(block_max_.begin() + at);
  } else if (c.pos == block.size()) {
    block_max_[c.block] = block.back().id;
  }
}

void FlatRing::reserve(std::size_t n) {
  const std::size_t blocks = n / (kBlockCapacity / 2) + 1;
  blocks_.reserve(blocks);
  block_max_.reserve(blocks);
  ids_.reserve(n);
  owners_.reserve(n);
  sybils_.reserve(n);
  tasks_.reserve(n);
}

Slot FlatRing::bulk_append(const Uint160& id, NodeIndex owner,
                           bool is_sybil) {
  if (!bulk_mode_) {
    DHTLB_CHECK(live_ == 0, "FlatRing::bulk_append on a non-empty ring");
    blocks_.emplace_back();
    bulk_mode_ = true;
  }
  const Slot slot = alloc_slot(id, owner, is_sybil);
  blocks_.front().push_back(Entry{id, slot});
  ++live_;
  return slot;
}

void FlatRing::finalize_bulk() {
  if (!bulk_mode_) return;
  Block all = std::move(blocks_.front());
  blocks_.clear();
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  // Half-full blocks leave every block room for kBlockCapacity / 2
  // inserts before its first split.
  constexpr std::size_t kFill = kBlockCapacity / 2;
  for (std::size_t i = 0; i < all.size(); i += kFill) {
    const std::size_t end = std::min(i + kFill, all.size());
    blocks_.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(i),
                         all.begin() + static_cast<std::ptrdiff_t>(end));
    block_max_.push_back(all[end - 1].id);
  }
  bulk_mode_ = false;
}

// --- introspection --------------------------------------------------------

bool FlatRing::index_consistent() const {
  if (bulk_mode_) return false;
  // Blocks non-empty, under capacity, summarized by their last id, and
  // ids strictly ascending across the whole index.
  if (block_max_.size() != blocks_.size()) return false;
  std::size_t entries = 0;
  const Uint160* prev = nullptr;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Block& block = blocks_[b];
    if (block.empty() || block.size() >= kBlockCapacity) return false;
    if (!(block_max_[b] == block.back().id)) return false;
    for (const Entry& e : block) {
      if (prev != nullptr && !(*prev < e.id)) return false;
      prev = &e.id;
    }
    entries += block.size();
  }
  if (entries != live_) return false;
  // Every entry's slot is in range, unique, not on the free list, and
  // stores the id the index claims.
  std::vector<std::uint8_t> seen(ids_.size(), 0);
  for (const Slot s : free_slots_) {
    if (s >= ids_.size() || seen[s]) return false;
    seen[s] = 2;
  }
  for (const Block& block : blocks_) {
    for (const Entry& e : block) {
      if (e.slot >= ids_.size() || seen[e.slot]) return false;
      seen[e.slot] = 1;
      if (!(ids_[e.slot] == e.id)) return false;
    }
  }
  // No leaked slots: every slot is live or free.
  for (const std::uint8_t mark : seen) {
    if (mark == 0) return false;
  }
  return true;
}

}  // namespace dhtlb::sim
