// The simulated DHT: a Chord ring of virtual nodes, the physical nodes
// that own them, the waiting pool, and the exact-key task assignment.
//
// This is the idealized network model the paper simulates on (§V): the
// ring is always consistent (one maintenance cycle fits in a tick),
// leaving nodes' tasks are instantly absorbed by their successor (active
// backup), and joining nodes instantly acquire the keys in their arc.
// The full Chord protocol with explicit messages lives in src/chord and
// is used to validate these assumptions and to cost them in messages.
//
// Vocabulary: a *virtual node* (vnode) is a presence on the ring —
// either a physical node's primary presence or one of its Sybils.  A
// *physical node* owns 1 + #Sybils vnodes, has a strength, and consumes
// work.
//
// Handles: a vnode is addressed by its Slot, and only by its Slot.  Each
// physical node lists its vnodes as slots, every ArcView carries the
// slot of the arc it describes, and every walk, key query and move takes
// one.  An id is only a ring position: a point to resolve (arc_covering)
// or a position to occupy (create_sybil, join_at, move_vnode's target).
// The one slot -> ring position conversion is FlatRing::cursor_of.
//
// Storage: the ring lives in a FlatRing (sim/flat_ring.hpp) — a sorted
// (id, slot) index over a stable slot arena — rather than a
// std::map<Uint160, VirtualNode>, so 100k..1M-vnode worlds fit in flat
// arrays instead of a pointer-chased tree.  Slots stay valid for their
// vnode's lifetime; ids are read back from the slot arena.
// Each world fact is stored once: a node is alive iff it has a position
// in the alive list (is_alive), and the run's Params live here only.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/flat_ring.hpp"
#include "sim/params.hpp"
#include "sim/task_store.hpp"
#include "support/check.hpp"
#include "support/prefetch.hpp"
#include "support/rng.hpp"
#include "support/uint160.hpp"

namespace dhtlb::sim {

namespace testing {
struct WorldCorruptor;  // test-only backdoor, defined under tests/sim/
}

using support::Uint160;

/// Number of contiguous ring arcs the parallel tick engine partitions the
/// alive population into.  Fixed — never derived from the worker-thread
/// count — so per-shard RNG streams, fold order, and therefore every
/// simulation output are identical at DHTLB_THREADS=1 and N.  Sixteen
/// arcs keep all plausible pool sizes busy while the per-tick partition
/// and fold overhead stays negligible.
inline constexpr std::size_t kTickShards = 16;

/// A machine participating (or waiting to participate) in the network.
/// Aliveness is not stored here: see World::is_alive.
struct PhysicalNode {
  unsigned strength = 1;          // het: U{1..maxSybils}; hom: 1
  std::vector<Slot> vnode_slots;  // ring slots; [0] = primary, rest Sybils
  std::uint64_t workload = 0;     // cached: Σ tasks over vnode_slots
};

/// Local view of one vnode's ownership arc — what a node can learn about
/// a ring position from its own routing state (strategies' only input).
struct ArcView {
  Uint160 pred;  // predecessor vnode's ID: arc is (pred, id]
  Uint160 id;
  Slot slot = FlatRing::kNoSlot;  // the vnode's handle
  NodeIndex owner = 0;
  bool is_sybil = false;
  std::uint64_t task_count = 0;
};

class World {
 public:
  /// Builds the initial network: `initial_nodes` alive physical nodes
  /// with SHA-1 IDs and an equal-size waiting pool.  Task provisioning
  /// depends on Params::provisioning (DESIGN.md §0): preallocated mode
  /// additionally assigns `total_tasks` SHA-1-keyed tasks to their owner
  /// arcs here; streamed mode starts the ring empty — the engine's
  /// sim::TaskStream delivers each tick's arrivals through inject_tasks().
  /// Node placement consumes the identical RNG sequence either way.
  /// `rng` is the construction stream: it is drawn from here only and
  /// never stored, so every later draw comes from a stream the caller
  /// names (DESIGN.md §8, "RNG streams").
  World(const Params& params, support::Rng& rng);

  /// Lazy, allocation-free walk over up to k neighbor arcs of a vnode:
  /// a node's successor or predecessor list (§V-B).  Each dereference
  /// yields the ArcView of the next vnode clockwise (or
  /// counterclockwise) using a cached ring cursor, so a full scan of a
  /// successor list costs one ring lookup total instead of one per
  /// neighbor.  The walk stops early when the ring wraps back to the
  /// starting vnode.  Cursors are invalidated by any ring mutation
  /// (join/depart/create_sybil/remove_sybils).
  class ArcWalk {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = ArcView;
      using difference_type = std::ptrdiff_t;

      ArcView operator*() const;
      iterator& operator++();
      bool operator==(const iterator& other) const {
        return remaining_ == other.remaining_;
      }
      bool operator!=(const iterator& other) const {
        return !(*this == other);
      }

     private:
      friend class ArcWalk;
      const World* world_ = nullptr;
      // The visited vnode and its predecessor.  Either direction steps
      // one of them and takes the other over: clockwise the visited
      // vnode becomes the next pred, counterclockwise the pred becomes
      // the next visited vnode.  So a step costs one ring step, and ids
      // are read only in operator*, for the fields a caller uses.
      FlatRing::Cursor cursor_{};
      FlatRing::Cursor pred_{};
      FlatRing::Cursor start_{};
      std::size_t remaining_ = 0;  // 0 == end
      bool forward_ = true;
    };

    iterator begin() const;
    iterator end() const { return iterator{}; }

    /// Arc of the vnode the walk starts from (not itself part of the
    /// walk), read from the walk's own cursor: no second ring search.
    ArcView start_arc() const { return world_->view_at(start_); }

   private:
    friend class World;
    ArcWalk(const World* world, FlatRing::Cursor start, std::size_t k,
            bool forward)
        : world_(world), start_(start), k_(k), forward_(forward) {}

    const World* world_;
    FlatRing::Cursor start_;
    std::size_t k_;
    bool forward_;
  };

  // --- global observers ---------------------------------------------------

  const Params& params() const { return params_; }
  std::uint64_t remaining_tasks() const { return remaining_; }

  /// Tasks ever assigned to the ring: the initial job plus every task
  /// injected mid-run (scenario workload events).  Conservation audits
  /// compare completed + remaining against this, not Params::total_tasks.
  std::uint64_t total_tasks() const { return total_tasks_; }
  std::size_t vnode_count() const { return ring_.size(); }
  std::size_t alive_count() const { return alive_.size(); }
  std::size_t waiting_count() const { return waiting_.size(); }
  const std::vector<NodeIndex>& alive_indices() const { return alive_; }
  const std::vector<NodeIndex>& waiting_indices() const { return waiting_; }

  const PhysicalNode& physical(NodeIndex idx) const {
    return physicals_[idx];
  }
  std::size_t physical_count() const { return physicals_.size(); }

  /// True iff `idx` is in the ring (listed in alive_indices()).
  bool is_alive(NodeIndex idx) const { return alive_pos_[idx] != kNotAlive; }

  /// Ring id of the vnode in a slot from some node's vnode_slots.
  const Uint160& vnode_id(Slot slot) const { return ring_.id_of(slot); }

  /// Owner recorded in a slot's arena entry.
  NodeIndex vnode_owner(Slot slot) const { return ring_.owner(slot); }

  /// One mark per slot: marks[s] != 0 iff slot s holds a vnode in the
  /// ring, indexed under the id the slot stores; no slot at or past
  /// marks.size() is live.  One ring sweep, no search; for the auditor
  /// and tests.
  std::vector<std::uint8_t> vnode_live_marks() const {
    return ring_.live_marks();
  }

  /// The ring's bytes, counted from capacities; for memory accounting.
  FlatRing::Footprint ring_footprint() const { return ring_.footprint(); }

  /// Slot of an alive node's primary vnode.
  Slot primary_slot(NodeIndex idx) const {
    DHTLB_ASSERT(!physicals_[idx].vnode_slots.empty(),
                 "primary_slot: node " << idx << " is not in the ring");
    return physicals_[idx].vnode_slots.front();
  }

  /// Slot of an alive node's most-loaded vnode: the first maximum of
  /// task count in vnode_slots order.  No ring search.
  Slot busiest_vnode(NodeIndex idx) const;

  // --- cache hints for loops over nodes in a known order -----------------

  /// A visit to a node reads a chain of dependent cache lines: its
  /// PhysicalNode record, then its vnode_slots array, then those slots'
  /// TaskStore headers, then the keys a consume or a split reads.
  /// prefetch_node hints one link of that chain; each link past the
  /// record reads the lines the link before it hinted.  A node without
  /// work reads no store, so the last two links skip it.
  enum class NodeLines { kRecord, kSlotList, kStores, kKeys };
  void prefetch_node(NodeIndex idx, NodeLines lines) const;

  /// Turns between the links prefetch_ahead hints: about one memory
  /// latency of the cheapest visit (a consume turn), so each link has
  /// landed by the time the next one reads it.
  static constexpr std::size_t kNodePrefetchDistance = 4;

  /// One turn of the prefetch pipeline of a loop visiting `order`,
  /// called before visiting order[i]: hints link k (kRecord = 0 ..
  /// kKeys = 3) of the node (4 - k)·kNodePrefetchDistance turns ahead,
  /// so each visit finds its chain cached.  Hints only: it reads the
  /// world but never changes it, and a turn must not use anything it
  /// computed.  Reads only nodes in `order`, so a shard may run it over
  /// its own members while other shards mutate theirs.
  void prefetch_ahead(std::span<const NodeIndex> order, std::size_t i) const;

  /// Every vnode ID in the ring, in clockwise (ascending) order.  For
  /// the invariant auditor, snapshots and tests — strategies must not
  /// use it (global knowledge).
  std::vector<Uint160> ring_ids() const;

  /// Calls fn(const ArcView&) for every vnode in clockwise (ascending)
  /// order — the bulk form of arc_of over the whole ring, O(ring) total
  /// instead of one ring search per vnode.  Same global-knowledge caveat
  /// as ring_ids(): for the auditor, snapshots and tests only.
  template <typename Fn>
  void for_each_arc(Fn&& fn) const;

  /// Tasks per tick this node completes (1, or strength — §V-B).
  std::uint64_t work_per_tick(NodeIndex idx) const;

  /// Maximum Sybils this node may hold (§V-B: maxSybils, or strength in
  /// a heterogeneous network).
  unsigned sybil_cap(NodeIndex idx) const;

  std::uint64_t workload(NodeIndex idx) const {
    return physicals_[idx].workload;
  }
  std::size_t sybil_count(NodeIndex idx) const {
    DHTLB_ASSERT(!physicals_[idx].vnode_slots.empty(),
                 "sybil_count: node " << idx << " holds no vnodes"
                                      << " (waiting, not in the ring)");
    return physicals_[idx].vnode_slots.size() - 1;
  }

  /// Sum of work_per_tick over the initially alive population — the
  /// denominator of the ideal runtime (§V-C).
  std::uint64_t initial_capacity() const { return initial_capacity_; }

  /// The tick-engine shard (contiguous ring arc, see kTickShards) that
  /// `idx`'s primary vnode lives on.  Cached at primary placement — the
  /// primary ID never changes while a node is alive — so the engine's
  /// per-tick partition is two flat array reads per node.  Only
  /// meaningful for alive nodes.
  std::uint8_t home_shard(NodeIndex idx) const { return home_shard_[idx]; }

  /// Per-alive-physical-node workloads, for histograms and imbalance
  /// metrics (order matches alive_indices()).
  std::vector<std::uint64_t> alive_workloads() const;

  // --- local topology queries (strategy building blocks) -----------------

  /// Arc of the vnode in `slot`.
  ArcView arc_of(Slot slot) const;

  /// Walk over the ArcViews of up to k successors of the vnode in
  /// `slot`, clockwise (its successor list).  Stops early if the ring
  /// wraps back to the starting vnode.
  ArcWalk successor_arcs(Slot slot, std::size_t k) const;

  /// Walk over the ArcViews of up to k predecessors of the vnode in
  /// `slot`, counterclockwise.
  ArcWalk predecessor_arcs(Slot slot, std::size_t k) const;

  /// Walk over up to k arcs from the ring's first (smallest-id) vnode,
  /// clockwise or counterclockwise.  It starts at the index's first
  /// entry and reads no slot's stored id, so the auditor's whole-ring
  /// walks still run on an index whose slot arena they are auditing.
  ArcWalk walk_from_first(std::size_t k, bool clockwise) const;

  /// Arc of the vnode whose ownership arc covers `point` (the vnode a
  /// lookup for `point` would land on).
  ArcView arc_covering(const Uint160& point) const;

  /// The n-th (0-based) remaining task key of `arc`'s vnode in arc
  /// order (clockwise from arc.pred, so arcs that wrap through zero
  /// order correctly), or nullopt when it holds fewer than n + 1 tasks.
  /// The exact split point of the chosen-ID (lower median) and
  /// item-balance (keep n + 1 keys on one side) strategies.  `arc` must
  /// be current: read since the last ring mutation.  No ring search.
  std::optional<Uint160> nth_task_key(const ArcView& arc,
                                      std::uint64_t n) const;

  /// Read-only view of the remaining task keys of the vnode in `slot`
  /// (unordered).  For inspection, tests and reference-model comparison
  /// — strategies must not use it (it is more than a node could know
  /// about a peer).  No ring search.
  const std::vector<TaskKey>& vnode_keys(Slot slot) const {
    return ring_.tasks(slot).keys();
  }

  // --- mutation: membership & Sybils --------------------------------------

  /// Inserts a Sybil vnode for `owner` at `id`, splitting the covering
  /// node's arc and transferring the keys in (pred, id].  Returns the
  /// number of tasks acquired, or nullopt if `id` collides with an
  /// existing vnode.  Does NOT check the Sybil cap (strategy's job).
  std::optional<std::uint64_t> create_sybil(NodeIndex owner, Uint160 id);

  /// Removes all of `owner`'s Sybils; their tasks fall to their ring
  /// successors (exactly like graceful departures).
  void remove_sybils(NodeIndex owner);

  /// Relocates the vnode in `slot` (at old_id) to `new_id` — the
  /// neighbor-move primitive of the item-balance family (Chawachat &
  /// Fakcharoenphol: a node re-joins at a boundary point negotiated with
  /// a neighbor instead of spawning Sybils).  `new_id` must lie strictly
  /// inside the open arc (pred(old), succ(old)) so only the two adjacent
  /// arcs are touched: moving counterclockwise sheds the keys in
  /// (new_id, old_id] to the old successor; moving clockwise acquires
  /// (old_id, new_id] from it.  Returns the number of keys that changed
  /// owner, or nullopt when the move is impossible (collision, new_id
  /// outside the neighbor arcs, or the vnode is alone in the ring).
  /// Ownership, aliveness and the Sybil flag are preserved; the vnode
  /// gets a new slot, which takes the old one's place in its owner's
  /// vnode_slots.
  std::optional<std::uint64_t> move_vnode(Slot slot, const Uint160& new_id);

  /// An alive node (with all its Sybils) leaves the network and enters
  /// the waiting pool; its tasks fall to ring successors.  Refuses (and
  /// returns false) when it owns the only vnodes in the ring.
  bool depart(NodeIndex idx);

  /// Pops one waiting node and joins it at a fresh SHA-1 ID; returns its
  /// index, or nullopt if the pool is empty.  The joiner immediately
  /// acquires the keys in its arc (§IV-A).  The ID is drawn from the
  /// caller's stream, so engine churn and scripted scenario joins each
  /// own their placement randomness.
  std::optional<NodeIndex> join_from_pool(support::Rng& id_rng);

  /// Joins waiting node `idx` at `id`, an ID the caller chose (the chord
  /// driver's protocol join); it acquires the keys in its arc like any
  /// joiner.  Returns the keys acquired, or nullopt — leaving `idx`
  /// waiting — when `id` is taken.  `idx` must not be alive.
  std::optional<std::uint64_t> join_at(NodeIndex idx, const Uint160& id);

  // --- mutation: work -----------------------------------------------------

  /// Consumes up to `budget` tasks from `idx`'s vnodes (most-loaded vnode
  /// first), with uniform picks from the caller's RNG stream.  Returns
  /// tasks actually consumed.  The global remaining-task counter is NOT
  /// debited — the tick engine folds per-shard consumed totals and
  /// settles the counter once at the barrier via debit_remaining().
  /// Thread-compatible: safe to call concurrently for nodes on different
  /// shards, because every mutation (TaskStores, workload cache) is
  /// local to `idx`'s own vnodes.
  std::uint64_t consume_local(NodeIndex idx, std::uint64_t budget,
                              support::Rng& rng);

  /// consume_local for each node of `members` in order, each with its
  /// work_per_tick budget, all on one RNG stream: one engine shard's
  /// consumption.  Returns the tasks consumed.  Runs prefetch_ahead
  /// over `members`, so the nodes' cache misses overlap.  Thread-
  /// compatible like consume_local, for disjoint member lists.
  std::uint64_t consume_members(std::span<const NodeIndex> members,
                                support::Rng& rng);

  /// Settles the global remaining-task counter after a parallel
  /// consumption phase: subtracts the folded per-shard total.
  void debit_remaining(std::uint64_t consumed);

  /// Adds one task per key to the vnode whose arc covers it — the
  /// mid-run workload entry point shared by scenario injection events
  /// and streamed provisioning (the engine folds each tick's TaskStream
  /// arrivals through here; DESIGN.md §0).  The whole batch is placed
  /// in one sorted sweep (FlatRing::cover_sorted), then appended in
  /// batch order, so every TaskStore receives its keys in the order
  /// they appear in `keys`.  Raises total_tasks() alongside
  /// remaining_tasks() so conservation stays exact.
  void inject_tasks(std::span<const TaskKey> keys);

  // --- mutation: scenario re-parameterization -----------------------------

  /// Changes the per-tick churn probability mid-run (must stay in
  /// [0, 1]); the engine's next churn draw uses it.
  void set_churn_rate(double rate);

  /// Changes sybilThreshold mid-run; strategies read it through params()
  /// on their next decision tick.
  void set_sybil_threshold(std::uint64_t threshold);

  /// True iff the alive-position index (the O(1) swap-pop depart
  /// bookkeeping) and the cached home shards agree with alive_ and the
  /// primary vnode IDs.  O(alive); for the auditor and tests.
  bool alive_index_consistent() const;

  /// Deep structural check of the flat ring index itself (sortedness,
  /// block sizes and summary, slot-arena cross-references).  For the
  /// auditor and tests.
  bool ring_index_consistent() const { return ring_.index_consistent(); }

 private:
  // Test-only: lets auditor tests seed deliberate corruptions (orphaned
  // keys, duplicated arcs, dangling Sybil owners) that the public API
  // makes impossible by construction.
  friend struct testing::WorldCorruptor;

  /// Builds the ArcView of the vnode a cursor points at; the second
  /// form takes the cursor of its predecessor as well.
  ArcView view_at(const FlatRing::Cursor& cursor) const;
  ArcView view_at(const FlatRing::Cursor& cursor,
                  const FlatRing::Cursor& pred) const;

  /// Generates a fresh SHA-1 node ID not colliding with the ring,
  /// drawing from the given stream; `at` receives its lower_bound
  /// cursor, the insert position of the join.
  Uint160 fresh_ring_id(support::Rng& rng, FlatRing::Cursor& at) const;

  /// Removes the vnode in `slot`, merging its tasks into its successor.
  /// The vnode must not be the last one in the ring.  The caller drops
  /// the slot from its owner's vnode_slots.
  void remove_vnode(Slot slot);

  /// Appends keys[i] to the store of slots[i] in batch order and
  /// credits the owners' workloads and the task counters.
  void append_tasks(std::span<const TaskKey> keys,
                    std::span<const Slot> slots);

  /// Shared join logic: splits the arc covering `id`, inserts a new
  /// vnode there for `owner` and appends its slot to the owner's
  /// vnode_slots.  `at` is ring_.lower_bound(id), taken since the last
  /// ring mutation, and `id` is not in the ring: the caller's collision
  /// check is the insert's only search.  Returns the tasks acquired.
  std::uint64_t insert_vnode(NodeIndex owner, const Uint160& id,
                             const FlatRing::Cursor& at, bool is_sybil);

  Params params_;
  FlatRing ring_;
  // Each node's vnode_slots hold FlatRing slots, which stay valid for
  // their vnode's lifetime (the arena recycles but never moves live
  // slots), so consume_local() reaches a node's TaskStores without a ring
  // search.
  std::vector<PhysicalNode> physicals_;
  std::vector<NodeIndex> alive_;
  std::vector<NodeIndex> waiting_;
  // alive_pos_[idx] = position of idx within alive_, or kNotAlive: the
  // one record of aliveness (is_alive).  Lets depart() swap-pop in O(1)
  // instead of std::erase's O(alive) scan — the difference between
  // O(alive) and O(alive^2 * churn) per tick at 1M vnodes.  Audited by
  // alive_index_consistent().
  static constexpr std::uint32_t kNotAlive = 0xFFFFFFFFu;
  std::vector<std::uint32_t> alive_pos_;
  // home_shard_[idx] = arc_shard(primary vnode id, kTickShards), cached
  // at primary placement for the engine's per-tick shard partition.
  std::vector<std::uint8_t> home_shard_;
  std::uint64_t remaining_ = 0;
  std::uint64_t total_tasks_ = 0;  // initial job + injected tasks
  std::uint64_t initial_capacity_ = 0;
  // inject_tasks' working memory, kept so steady-state batches do not
  // allocate: the resolved slot per key and the sweep's sort scratch.
  std::vector<Slot> cover_slots_;
  FlatRing::CoverScratch cover_scratch_;
};

// The walk iterator ops live here (not in world.cpp) so the per-arc ring
// steps inline into strategy loops — they are the hot path of every
// successor-list scan — and the loads of fields a caller never reads
// drop out.
inline ArcView World::view_at(const FlatRing::Cursor& cursor,
                              const FlatRing::Cursor& pred) const {
  const Slot slot = ring_.slot_at(cursor);
  ArcView view;
  view.pred = ring_.id_at(pred);
  view.id = ring_.id_at(cursor);
  view.slot = slot;
  view.owner = ring_.owner(slot);
  view.is_sybil = ring_.is_sybil(slot);
  view.task_count = ring_.tasks(slot).size();
  return view;
}

inline ArcView World::view_at(const FlatRing::Cursor& cursor) const {
  return view_at(cursor, ring_.prev(cursor));
}

inline ArcView World::ArcWalk::iterator::operator*() const {
  return world_->view_at(cursor_, pred_);
}

inline World::ArcWalk::iterator& World::ArcWalk::iterator::operator++() {
  const FlatRing& ring = world_->ring_;
  if (forward_) {
    pred_ = cursor_;
    cursor_ = ring.next(cursor_);
  } else {
    cursor_ = pred_;
    pred_ = ring.prev(pred_);
  }
  --remaining_;
  if (remaining_ != 0 && cursor_ == start_) remaining_ = 0;
  return *this;
}

inline World::ArcWalk::iterator World::ArcWalk::begin() const {
  const FlatRing& ring = world_->ring_;
  iterator it;
  it.world_ = world_;
  it.forward_ = forward_;
  it.start_ = start_;
  if (forward_) {
    it.pred_ = start_;  // the first visited arc succeeds the start
    it.cursor_ = ring.next(start_);
  } else {
    it.cursor_ = ring.prev(start_);
    it.pred_ = ring.prev(it.cursor_);
  }
  // A walk is empty when k is zero or the starting vnode is alone in the
  // ring (its only neighbor is itself).
  it.remaining_ = (k_ == 0 || it.cursor_ == start_) ? 0 : k_;
  return it;
}

inline void World::prefetch_node(NodeIndex idx, NodeLines lines) const {
  const PhysicalNode& node = physicals_[idx];
  switch (lines) {
    case NodeLines::kRecord:
      support::prefetch_object(&node);
      break;
    case NodeLines::kSlotList:
      if (!node.vnode_slots.empty()) support::prefetch(&node.vnode_slots[0]);
      break;
    case NodeLines::kStores:
      if (node.workload == 0) break;
      for (const Slot slot : node.vnode_slots) {
        support::prefetch(&ring_.tasks(slot));
      }
      break;
    case NodeLines::kKeys:
      if (node.workload == 0) break;
      for (const Slot slot : node.vnode_slots) {
        // A consume reads a random key and the last one.
        const std::vector<TaskKey>& keys = ring_.tasks(slot).keys();
        if (keys.empty()) continue;
        support::prefetch(keys.data());
        support::prefetch(&keys.back());
      }
      break;
  }
}

inline void World::prefetch_ahead(std::span<const NodeIndex> order,
                                  std::size_t i) const {
  constexpr std::size_t d = kNodePrefetchDistance;
  const std::size_t n = order.size();
  if (i + 4 * d < n) prefetch_node(order[i + 4 * d], NodeLines::kRecord);
  if (i + 3 * d < n) prefetch_node(order[i + 3 * d], NodeLines::kSlotList);
  if (i + 2 * d < n) prefetch_node(order[i + 2 * d], NodeLines::kStores);
  if (i + d < n) prefetch_node(order[i + d], NodeLines::kKeys);
}

template <typename Fn>
void World::for_each_arc(Fn&& fn) const {
  if (ring_.empty()) return;
  // The predecessor of the first (smallest) id is the ring's largest id;
  // after that each vnode's predecessor is simply the previous one in
  // ascending order.
  Uint160 pred = ring_.id_at(ring_.prev(ring_.first()));
  ring_.for_each([&](const Uint160& id, Slot slot) {
    ArcView view;
    view.pred = pred;
    view.id = id;
    view.slot = slot;
    view.owner = ring_.owner(slot);
    view.is_sybil = ring_.is_sybil(slot);
    view.task_count = ring_.tasks(slot).size();
    fn(static_cast<const ArcView&>(view));
    pred = id;
  });
}

}  // namespace dhtlb::sim
