// Flat ring storage: a blocked sorted (id, slot) index over a stable
// slot arena.
//
// The simulated ring used to live in a std::map<Uint160, VirtualNode>,
// which costs one heap node and a pointer-chasing tree walk per vnode —
// prohibitive at the 100k..1M vnode scales the roadmap targets.  This
// container keeps the same ordered-ring semantics on two flat pieces:
//
//  * an *index*: the (id, slot) entries in ascending id order, cut into
//    sorted blocks of fewer than kBlockCapacity entries, plus a summary
//    vector holding each block's largest id.  lower_bound picks the
//    block from the summary and the position inside it, both with the
//    interpolate-then-gallop kernel of support/sorted_search.hpp (whose
//    binary search RingView's lookups run on one radix bucket);
//    successor/predecessor steps walk a
//    position within a block and cross to the neighbouring block at its
//    ends (O(1) steps on contiguous memory instead of tree pointer
//    chases);
//  * a *slot arena*: per-vnode payloads split struct-of-arrays — id,
//    owner, sybil flag, and TaskStore each in their own array, indexed
//    by a Slot handle.  Slots are stable for a vnode's lifetime (freed
//    slots are recycled), which replaces the old "map value pointers
//    never move" contract: callers cache Slot handles instead of
//    pointers.  The arrays live in fixed-size pages of kPageSlots slots
//    behind a small page table: growth allocates one page and never
//    moves a payload, so a reference to a slot's id or TaskStore
//    survives every insert (until that slot's erase), and growth never
//    holds an old and a new copy of the arena at once.  A slot's payload
//    is constructed when the slot is first handed out, so a page costs
//    RSS only as it fills.
//
// Cost model: an insert or erase shifts entries inside one block, so a
// membership change costs O(kBlockCapacity) plus, when a full block
// splits in half or an emptied block is dropped, one shift of the
// per-block vectors (O(n / kBlockCapacity)).  No mutation ever touches
// the whole index: there are no global passes and no deferred work.
//
// A new ring is filled in one call (bulk_load): the ids are sorted once
// with the bucket sort cover_sorted uses and cut into half-full blocks.
//
// Bulk key placement has a batch search too (cover_sorted): sort the
// batch once, then resolve every key in one forward sweep over the
// blocks, instead of one random-access search per key.
//
// Determinism: this container is purely representational — it stores
// exactly the (id -> payload) ring the std::map stored, iterates in the
// same ascending-id order, and draws no randomness — so replacing the
// map cannot change any simulation result.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/task_store.hpp"
#include "support/check.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {

namespace testing {
struct FlatRingCorruptor;  // test-only backdoor, defined under tests/sim/
}

using support::Uint160;

/// Index of a physical node in the world (stable across its lifetime).
using NodeIndex = std::uint32_t;

/// Stable handle of one vnode's arena slot (valid until its erase).
using Slot = std::uint32_t;

class FlatRing {
 public:
  /// Sentinel slot: never a valid handle.
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;

  /// A block splits in half when an insert fills it to this many
  /// entries, so every block holds 1..kBlockCapacity-1.  A constant of
  /// the representation, not a tuning knob.
  static constexpr std::size_t kBlockCapacity = 512;

  /// Slots per arena page (a power of two): the arena grows one page at
  /// a time.  A constant of the representation, not a tuning knob.
  static constexpr std::size_t kPageSlots = 1024;

  struct Entry {
    Uint160 id;
    Slot slot = kNoSlot;
  };

  // --- size & membership --------------------------------------------------

  /// Live vnodes in the ring.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // --- slot arena (stable handles) ----------------------------------------
  // A reference these accessors return stays valid across inserts and
  // other slots' erases; erasing the slot itself ends it.

  const Uint160& id_of(Slot s) const { return arena_.id(s); }
  /// Liveness of every slot: one mark per arena slot, set iff the index
  /// holds the slot's stored id at that slot (unset for freed slots).
  /// One index sweep, no search; slots at or past the returned size are
  /// not live.  cursor_of is the checked form for one slot.
  std::vector<std::uint8_t> live_marks() const;
  NodeIndex owner(Slot s) const { return arena_.owner(s); }
  bool is_sybil(Slot s) const { return arena_.sybil(s) != 0; }
  TaskStore& tasks(Slot s) { return arena_.tasks(s); }
  const TaskStore& tasks(Slot s) const { return arena_.tasks(s); }

  // --- cursors ------------------------------------------------------------

  /// Position of one vnode in the index: entry `pos` of block `block`.
  /// next()/prev() walk the ring clockwise and counterclockwise with
  /// wrap-around.  Invalidated by any mutation (insert_at/erase_at/
  /// bulk_load) — same contract as the old map iterators.  Slots, by
  /// contrast, stay valid.
  struct Cursor {
    std::size_t block = 0;
    std::size_t pos = 0;
    friend bool operator==(const Cursor&, const Cursor&) = default;
  };

  /// Cursor of the first vnode with id >= `id`, or the end cursor
  /// (is_end) when every id is smaller: the one search behind cover and
  /// cursor_of.  A caller that probes an id and then inserts it hands
  /// this cursor to insert_at instead of searching a second time.
  Cursor lower_bound(const Uint160& id) const;

  /// True iff `c` is the end cursor: no vnode at or after the id
  /// lower_bound searched for.
  bool is_end(const Cursor& c) const { return c.block == blocks_.size(); }

  /// True iff the lower_bound cursor `c` of `id` points at `id` itself.
  bool holds(const Cursor& c, const Uint160& id) const {
    return !is_end(c) && id_at(c) == id;
  }

  /// cover(id) from lower_bound(id): the end cursor wraps clockwise to
  /// the first vnode.  Ring must be non-empty.
  Cursor wrap(const Cursor& c) const { return is_end(c) ? first() : c; }

  /// Cursor of the vnode in slot `s`: the one slot -> cursor
  /// conversion.  Searches the id the slot stores and DHTLB_CHECKs that
  /// the cursor holds that id at that slot, so a freed, out-of-range or
  /// desynced slot fails loudly instead of naming another vnode.
  Cursor cursor_of(Slot s) const;

  /// Cursor of the first vnode clockwise at or after `point` (the vnode
  /// whose ownership arc covers it), wrapping past zero.  Ring must be
  /// non-empty.
  Cursor cover(const Uint160& point) const;

  /// Cursor of the smallest id.  Ring must be non-empty.
  Cursor first() const;

  /// Working memory of cover_sorted: the batch's sort records and its
  /// bucket offsets.  Reusing one across calls keeps steady-state
  /// batches allocation-free.
  struct CoverScratch {
    std::vector<std::uint64_t> order;
    std::vector<std::uint32_t> bucket_end;
  };

  /// Batch form of cover(): writes to slots[i] the slot of the vnode
  /// whose arc covers keys[i], for every i (slots.size() ==
  /// keys.size(); the ring must be non-empty unless the batch is).
  /// One counting pass buckets the keys on their top bits, each bucket
  /// is sorted by full key, and one forward sweep over the blocks then
  /// resolves the sorted keys in order; keys past the largest id wrap
  /// to the first vnode.  Point lookups keep using cover().
  void cover_sorted(std::span<const Uint160> keys, std::span<Slot> slots,
                    CoverScratch& scratch) const;

  // Neighbor steps are the inner loop of every ring walk; they live at
  // the bottom of this header so they inline into the walk iterators.
  Cursor next(const Cursor& c) const;  // clockwise neighbor, wraps
  Cursor prev(const Cursor& c) const;  // counterclockwise neighbor, wraps

  const Uint160& id_at(const Cursor& c) const {
    return blocks_[c.block][c.pos].id;
  }
  Slot slot_at(const Cursor& c) const { return blocks_[c.block][c.pos].slot; }

  /// Calls fn(id, slot) for every live vnode in ascending-id order — the
  /// bulk read path (snapshots, audits, task assignment) at O(n) with no
  /// per-element search.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Block& block : blocks_) {
      for (const Entry& e : block) fn(e.id, e.slot);
    }
  }

  // --- mutation -----------------------------------------------------------

  /// Inserts a new vnode at `at`, which must be lower_bound(id), taken
  /// since the last mutation, and must not hold `id`; returns its arena
  /// slot.  O(kBlockCapacity), no search.
  Slot insert_at(const Cursor& at, const Uint160& id, NodeIndex owner,
                 bool is_sybil);

  /// Removes the vnode `c` points at (a cursor taken since the last
  /// mutation), freeing its slot.  Any tasks still in its store are
  /// dropped — callers merge them out first.  No search.
  void erase_at(const Cursor& c);

  /// Fills a fresh ring (one that has never held a vnode) with the
  /// longest prefix of `ids` that repeats no id, and returns its length
  /// k: slot i holds ids[i], owned by owners[i] and not a Sybil, for
  /// every i < k, and the rest of `ids` is left out.  One bucket sort of
  /// all of `ids` puts equal ids next to each other, so k is the
  /// smallest second index of any repeated id (ids.size() if none
  /// repeats); the sorted entries are cut into half-full blocks.
  /// owners.size() == ids.size() <= 2^32 - 1.
  std::size_t bulk_load(std::span<const Uint160> ids,
                        std::span<const NodeIndex> owners);

  // --- introspection (audits, tests) --------------------------------------

  /// Deep structural check: ids strictly ascending across all blocks,
  /// no block empty or at capacity, each summary id equal to its
  /// block's last id, the live count matching, every entry's slot valid
  /// and unique, every slot's stored id matching its index entry.
  /// O(n); for the invariant auditor and tests.
  bool index_consistent() const;

  /// Bytes the ring holds, counted from capacities rather than RSS.
  struct Footprint {
    std::size_t index_bytes = 0;  // blocks, block list and summary
    std::size_t arena_bytes = 0;  // pages, page table and free list
    std::size_t task_key_capacity = 0;  // key slots across all stores
    std::size_t task_keys = 0;          // keys those slots hold
  };
  /// O(blocks + arena slots); for memory accounting benches.
  Footprint footprint() const;

 private:
  // Test-only: lets auditor tests seed index corruptions (arena/index id
  // mismatches, stale summaries) that the public API makes impossible by
  // construction.
  friend struct testing::FlatRingCorruptor;

  using Block = std::vector<Entry>;

  Slot alloc_slot(const Uint160& id, NodeIndex owner, bool is_sybil);
  void free_slot(Slot s);

  /// First block whose largest id is >= `id`; blocks_.size() if none.
  std::size_t block_lower_bound(const Uint160& id) const;
  /// First position in blocks_[b] with id >= `id`; blocks_[b].size() if
  /// none.
  std::size_t pos_lower_bound(std::size_t b, const Uint160& id) const;

  Cursor last() const;

  /// Moves the upper half of the full block b into a new block b + 1.
  void split_block(std::size_t b);

  // Ascending sorted blocks, each 1..kBlockCapacity-1 entries, and the
  // summary: block_max_[b] == blocks_[b].back().id.
  std::vector<Block> blocks_;
  std::vector<Uint160> block_max_;
  std::size_t live_ = 0;

  // The slot arena: slots 0..size()-1 have been handed out, each live or
  // on the free list.  Slot s lives at entry s % kPageSlots of page
  // s / kPageSlots; pages never move, so neither does a payload.
  class Arena {
   public:
    Arena() = default;
    Arena(const Arena& other);
    Arena(Arena&& other) noexcept;
    Arena& operator=(Arena other) noexcept;
    ~Arena();

    /// Slots handed out so far.
    std::size_t size() const { return size_; }
    void reserve(std::size_t n) {
      pages_.reserve((n + kPageSlots - 1) / kPageSlots);
    }
    /// Bytes of the allocated pages plus the page table.
    std::size_t bytes() const {
      return pages_.size() * sizeof(Page) +
             pages_.capacity() * sizeof(pages_[0]);
    }

    /// Hands out slot size(), constructing its payload (an empty store);
    /// allocates a page when the last one is full.
    Slot push(const Uint160& id, NodeIndex owner, std::uint8_t sybil);

    Uint160& id(Slot s) { return page(s).ids[at(s)].value; }
    const Uint160& id(Slot s) const { return page(s).ids[at(s)].value; }
    NodeIndex& owner(Slot s) { return page(s).owners[at(s)]; }
    NodeIndex owner(Slot s) const { return page(s).owners[at(s)]; }
    std::uint8_t& sybil(Slot s) { return page(s).sybils[at(s)]; }
    std::uint8_t sybil(Slot s) const { return page(s).sybils[at(s)]; }
    TaskStore& tasks(Slot s) { return page(s).tasks[at(s)].value; }
    const TaskStore& tasks(Slot s) const {
      return page(s).tasks[at(s)].value;
    }

   private:
    // Storage the page itself never constructs: the arena builds each
    // payload in place when its slot is first handed out.
    template <typename T>
    union Lazy {
      Lazy() {}
      ~Lazy() {}
      T value;
    };
    // Struct-of-arrays inside a page: the hot membership fields (id,
    // owner, sybil flag) pack densely for the auditor/strategy scans;
    // the cold TaskStore headers stay out of their cache lines.
    struct Page {
      Lazy<Uint160> ids[kPageSlots];
      NodeIndex owners[kPageSlots];
      std::uint8_t sybils[kPageSlots];
      Lazy<TaskStore> tasks[kPageSlots];
    };
    static_assert((kPageSlots & (kPageSlots - 1)) == 0,
                  "kPageSlots must be a power of two");

    static std::size_t at(Slot s) { return s % kPageSlots; }
    Page& page(Slot s) { return *pages_[s / kPageSlots]; }
    const Page& page(Slot s) const { return *pages_[s / kPageSlots]; }

    std::vector<std::unique_ptr<Page>> pages_;
    std::size_t size_ = 0;
  };

  Arena arena_;
  std::vector<Slot> free_slots_;
};

inline FlatRing::Cursor FlatRing::next(const Cursor& c) const {
  if (c.pos + 1 < blocks_[c.block].size()) return Cursor{c.block, c.pos + 1};
  if (c.block + 1 < blocks_.size()) return Cursor{c.block + 1, 0};
  return first();  // wrap clockwise past the top
}

inline FlatRing::Cursor FlatRing::prev(const Cursor& c) const {
  if (c.pos > 0) return Cursor{c.block, c.pos - 1};
  if (c.block > 0) return Cursor{c.block - 1, blocks_[c.block - 1].size() - 1};
  return last();  // wrap counterclockwise past zero
}

}  // namespace dhtlb::sim
