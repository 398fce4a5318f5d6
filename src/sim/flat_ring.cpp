#include "sim/flat_ring.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "support/sorted_search.hpp"

namespace dhtlb::sim {

namespace {

// cover_sorted's counting pass aims at about this many keys per bucket,
// so sorting a bucket costs a few compares per key.
constexpr std::size_t kKeysPerBucket = 8;
// Buckets up to this size are insertion-sorted; larger ones (a narrow
// hotspot batch piles into a few buckets) go through std::sort, so any
// batch sorts in O(n log n).
constexpr std::size_t kInsertionSortMax = 32;
// At most 2^24 buckets: the sort records' 32 prefix bits then sit
// inside the key's top 64 bits (bucket bits + 32 <= 56).
constexpr int kMaxBucketBits = 24;

// Bucket bits for a batch of n keys: about kKeysPerBucket keys each.
int bucket_bits(std::size_t n) {
  return std::min(kMaxBucketBits,
                  static_cast<int>(std::bit_width(n / kKeysPerBucket)));
}

// The ring's one sort kernel, behind cover_sorted and bulk_load:
// orders the n keys key_at(0) .. key_at(n - 1) and hands each bucket's
// sorted records to visit(bucket, records), bucket by bucket in
// ascending order, while the bucket is cache-hot.
//
// A counting pass buckets the keys on their top bucket_bits(n) bits.
// Each sort record packs the 32 key bits below the bucket bits over the
// key's index (record & 0xFFFFFFFF), so a record's bucket and prefix
// give the key's top bits + 32 bits without reading the key.  Records
// order on their prefix, then on the full key (keys sharing the prefix
// bits may still differ below them), then on the index: equal keys sort
// next to each other in draw order.
template <typename KeyAt, typename Visit>
void bucket_sort(std::size_t n, const KeyAt& key_at,
                 FlatRing::CoverScratch& scratch, const Visit& visit) {
  const int bits = bucket_bits(n);
  const int shift = 32 - bits;  // high64() >> shift: bucket bits + prefix
  const auto bucket_of = [bits](std::uint64_t high) -> std::size_t {
    return bits == 0 ? 0 : static_cast<std::size_t>(high >> (64 - bits));
  };
  std::vector<std::uint32_t>& ends = scratch.bucket_end;
  ends.assign(std::size_t{1} << bits, 0);
  for (std::size_t i = 0; i < n; ++i) ++ends[bucket_of(key_at(i).high64())];
  std::uint32_t start = 0;
  for (std::uint32_t& end : ends) {
    const std::uint32_t count = end;
    end = start;
    start += count;
  }
  std::vector<std::uint64_t>& order = scratch.order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t high = key_at(i).high64();
    const auto prefix = static_cast<std::uint32_t>(high >> shift);
    order[ends[bucket_of(high)]++] =
        (static_cast<std::uint64_t>(prefix) << 32) | i;
  }
  // Now ends[b] is one past bucket b's last record.

  const auto record_less = [&key_at](std::uint64_t a, std::uint64_t b) {
    if ((a >> 32) != (b >> 32)) return a < b;
    const auto cmp = key_at(static_cast<std::uint32_t>(a)) <=>
                     key_at(static_cast<std::uint32_t>(b));
    return cmp != 0 ? cmp < 0 : a < b;
  };
  std::size_t begin = 0;
  for (std::size_t bucket = 0; bucket < ends.size(); ++bucket) {
    const std::size_t end = ends[bucket];
    if (end - begin > kInsertionSortMax) {
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                order.begin() + static_cast<std::ptrdiff_t>(end), record_less);
    } else {
      for (std::size_t i = begin + 1; i < end; ++i) {
        const std::uint64_t record = order[i];
        std::size_t j = i;
        for (; j > begin && record_less(record, order[j - 1]); --j) {
          order[j] = order[j - 1];
        }
        order[j] = record;
      }
    }
    visit(static_cast<std::uint64_t>(bucket),
          std::span<const std::uint64_t>(order).subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace

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

std::vector<std::uint8_t> FlatRing::live_marks() const {
  std::vector<std::uint8_t> marks(arena_.size(), 0);
  for_each([&](const Uint160& id, Slot s) {
    if (s < arena_.size() && arena_.id(s) == id) marks[s] = 1;
  });
  return marks;
}

// --- cursors --------------------------------------------------------------

FlatRing::Cursor FlatRing::cursor_of(Slot s) const {
  DHTLB_CHECK(s < arena_.size(),
              "FlatRing::cursor_of: slot " << s << " is past the arena");
  const Uint160& id = arena_.id(s);
  const Cursor c = lower_bound(id);
  DHTLB_CHECK(holds(c, id) && slot_at(c) == s,
              "FlatRing::cursor_of: slot " << s << " holds no vnode in the "
                                              "ring (freed or stale)");
  return c;
}

FlatRing::Cursor FlatRing::cover(const Uint160& point) const {
  DHTLB_CHECK(live_ > 0, "FlatRing::cover on empty ring");
  return wrap(lower_bound(point));  // past the top wraps to the first
}

void FlatRing::cover_sorted(std::span<const Uint160> keys,
                            std::span<Slot> slots,
                            CoverScratch& scratch) const {
  DHTLB_CHECK(slots.size() == keys.size(),
              "FlatRing::cover_sorted: " << slots.size() << " slots for "
                                         << keys.size() << " keys");
  if (keys.empty()) return;
  DHTLB_CHECK(live_ > 0, "FlatRing::cover_sorted on empty ring");
  DHTLB_CHECK(keys.size() <= 0xFFFFFFFFu,
              "FlatRing::cover_sorted: batch of " << keys.size()
                                                  << " keys exceeds 2^32 - 1");
  const int shift = 32 - bucket_bits(keys.size());
  // True iff ring id `id` sorts below the key of `record` in bucket
  // `bucket`; reads the key only when the prefix bits tie.
  const auto id_below = [&keys, shift](const Uint160& id, std::uint64_t bucket,
                                        std::uint64_t record) {
    const std::uint64_t id_prefix = id.high64() >> shift;
    const std::uint64_t key_prefix = (bucket << 32) | (record >> 32);
    if (id_prefix != key_prefix) return id_prefix < key_prefix;
    return id < keys[static_cast<std::uint32_t>(record)];
  };

  // Sweep each sorted bucket: the cursor (block, pos) only ever moves
  // forward, to the first id at or above each key in turn.  Keys above
  // the largest id wrap to the first vnode.
  const Slot wrap_slot = blocks_.front().front().slot;
  std::size_t block = 0;
  std::size_t pos = 0;
  bucket_sort(
      keys.size(), [&keys](std::size_t i) -> const Uint160& { return keys[i]; },
      scratch,
      [&](std::uint64_t bucket, std::span<const std::uint64_t> records) {
        for (const std::uint64_t record : records) {
          while (block < blocks_.size() &&
                 id_below(block_max_[block], bucket, record)) {
            ++block;
            pos = 0;
          }
          Slot slot = wrap_slot;
          if (block < blocks_.size()) {
            const Block& entries = blocks_[block];
            while (id_below(entries[pos].id, bucket, record)) ++pos;
            slot = entries[pos].slot;
          }
          slots[static_cast<std::uint32_t>(record)] = slot;
        }
      });
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

FlatRing::Arena::Arena(const Arena& other) {
  pages_.reserve(other.pages_.capacity());
  for (Slot s = 0; s < other.size_; ++s) {
    push(other.id(s), other.owner(s), other.sybil(s));
    tasks(s) = other.tasks(s);
  }
}

FlatRing::Arena::Arena(Arena&& other) noexcept
    : pages_(std::move(other.pages_)), size_(std::exchange(other.size_, 0)) {}

FlatRing::Arena& FlatRing::Arena::operator=(Arena other) noexcept {
  std::swap(pages_, other.pages_);
  std::swap(size_, other.size_);
  return *this;
}

FlatRing::Arena::~Arena() {
  for (Slot s = 0; s < size_; ++s) std::destroy_at(&tasks(s));
}

Slot FlatRing::Arena::push(const Uint160& id, NodeIndex owner,
                           std::uint8_t sybil) {
  DHTLB_CHECK(size_ < kNoSlot, "FlatRing: slot arena exhausted");
  const auto s = static_cast<Slot>(size_);
  if (size_ == pages_.size() * kPageSlots) {
    // Default-initialized: the page's memory stays untouched until its
    // slots are handed out.
    pages_.push_back(std::make_unique_for_overwrite<Page>());
  }
  Page& p = page(s);
  std::construct_at(&p.ids[at(s)].value, id);
  p.owners[at(s)] = owner;
  p.sybils[at(s)] = sybil;
  std::construct_at(&p.tasks[at(s)].value);
  ++size_;
  return s;
}

Slot FlatRing::alloc_slot(const Uint160& id, NodeIndex owner, bool is_sybil) {
  const std::uint8_t sybil = is_sybil ? 1 : 0;
  if (free_slots_.empty()) return arena_.push(id, owner, sybil);
  const Slot s = free_slots_.back();
  free_slots_.pop_back();
  arena_.id(s) = id;
  arena_.owner(s) = owner;
  arena_.sybil(s) = sybil;
  return s;
}

void FlatRing::free_slot(Slot s) {
  // Drop the bucket's capacity too: under churn a recycled slot's next
  // occupant usually holds far fewer keys than a departed node's peak.
  arena_.tasks(s) = TaskStore{};
  free_slots_.push_back(s);
}

// --- mutation -------------------------------------------------------------

Slot FlatRing::insert_at(const Cursor& at, const Uint160& id, NodeIndex owner,
                         bool is_sybil) {
  if (blocks_.empty()) {
    const Slot slot = alloc_slot(id, owner, is_sybil);
    blocks_.push_back(Block{Entry{id, slot}});
    block_max_.push_back(id);
    ++live_;
    return slot;
  }
  std::size_t b = at.block;
  std::size_t pos = at.pos;
  if (is_end(at)) {
    b = blocks_.size() - 1;  // past every id: becomes the last block's max
    pos = blocks_[b].size();
  } else {
    DHTLB_CHECK(b < blocks_.size() && pos < blocks_[b].size(),
                "FlatRing::insert_at: cursor out of range");
    DHTLB_ASSERT(!(blocks_[b][pos].id == id),
                 "FlatRing::insert_at: duplicate id " << id);
  }
  // `at` must be id's lower_bound: the entry it points at (if any) above
  // id, the entry before it below.
  DHTLB_ASSERT((is_end(at) || id < blocks_[b][pos].id) &&
                   ((b == 0 && pos == 0) ||
                    (pos > 0 ? blocks_[b][pos - 1].id : block_max_[b - 1]) <
                        id),
               "FlatRing::insert_at: cursor is not the lower_bound of " << id);
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

void FlatRing::erase_at(const Cursor& c) {
  DHTLB_CHECK(c.block < blocks_.size() && c.pos < blocks_[c.block].size(),
              "FlatRing::erase_at: cursor out of range");
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

std::size_t FlatRing::bulk_load(std::span<const Uint160> ids,
                                std::span<const NodeIndex> owners) {
  DHTLB_CHECK(arena_.size() == 0,
              "FlatRing::bulk_load into a ring that has held vnodes");
  DHTLB_CHECK(owners.size() == ids.size(),
              "FlatRing::bulk_load: " << owners.size() << " owners for "
                                      << ids.size() << " ids");
  DHTLB_CHECK(ids.size() <= 0xFFFFFFFFu,
              "FlatRing::bulk_load: " << ids.size()
                                      << " ids exceed 2^32 - 1");
  // Equal ids sort next to each other in index order, so the first
  // repeat of an id directly follows its first occurrence.  Only records
  // whose prefix bits tie can hold equal ids.
  std::size_t k = ids.size();
  CoverScratch scratch;
  bucket_sort(
      ids.size(), [&ids](std::size_t i) -> const Uint160& { return ids[i]; },
      scratch, [&](std::uint64_t, std::span<const std::uint64_t> records) {
        for (std::size_t r = 1; r < records.size(); ++r) {
          if ((records[r - 1] >> 32) != (records[r] >> 32)) continue;
          const auto prev = static_cast<std::uint32_t>(records[r - 1]);
          const auto i = static_cast<std::uint32_t>(records[r]);
          if (ids[i] == ids[prev]) k = std::min<std::size_t>(k, i);
        }
      });

  arena_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) arena_.push(ids[i], owners[i], 0);
  // Half-full blocks leave every block room for kBlockCapacity / 2
  // inserts before its first split.
  constexpr std::size_t kFill = kBlockCapacity / 2;
  blocks_.reserve((k + kFill - 1) / kFill);
  for (const std::uint64_t record : scratch.order) {
    const auto i = static_cast<std::uint32_t>(record);
    if (i >= k) continue;
    if (live_ % kFill == 0) {
      blocks_.emplace_back();
      blocks_.back().reserve(std::min(kFill, k - live_));
    }
    blocks_.back().push_back(Entry{ids[i], static_cast<Slot>(i)});
    ++live_;
  }
  block_max_.reserve(blocks_.size());
  for (const Block& block : blocks_) block_max_.push_back(block.back().id);
  return k;
}

// --- introspection --------------------------------------------------------

bool FlatRing::index_consistent() const {
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
  std::vector<std::uint8_t> seen(arena_.size(), 0);
  for (const Slot s : free_slots_) {
    if (s >= arena_.size() || seen[s]) return false;
    seen[s] = 2;
  }
  for (const Block& block : blocks_) {
    for (const Entry& e : block) {
      if (e.slot >= arena_.size() || seen[e.slot]) return false;
      seen[e.slot] = 1;
      if (!(arena_.id(e.slot) == e.id)) return false;
    }
  }
  // No leaked slots: every slot is live or free.
  for (const std::uint8_t mark : seen) {
    if (mark == 0) return false;
  }
  return true;
}

FlatRing::Footprint FlatRing::footprint() const {
  Footprint f;
  f.index_bytes = blocks_.capacity() * sizeof(Block) +
                  block_max_.capacity() * sizeof(Uint160);
  for (const Block& block : blocks_) {
    f.index_bytes += block.capacity() * sizeof(Entry);
  }
  f.arena_bytes = arena_.bytes() + free_slots_.capacity() * sizeof(Slot);
  for (Slot s = 0; s < arena_.size(); ++s) {
    f.task_key_capacity += arena_.tasks(s).keys().capacity();
    f.task_keys += arena_.tasks(s).size();
  }
  return f;
}

}  // namespace dhtlb::sim
