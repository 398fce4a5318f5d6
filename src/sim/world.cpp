#include "sim/world.hpp"

#include <algorithm>

#include "hashing/sha1.hpp"
#include "sim/task_stream.hpp"
#include "support/check.hpp"
#include "support/ring_math.hpp"

namespace dhtlb::sim {

World::World(const Params& params, support::Rng& rng)
    : params_(params) {
  static_assert(2 * Params::kMaxInitialNodes < kNotAlive,
                "physical indices 0..2n-1 must stay below the sentinel");
  params_.validate();

  // Physical population: N alive + N waiting (§IV-A: the waiting pool
  // "begins at the same initial size as the network").
  const std::size_t n = params_.initial_nodes;
  physicals_.resize(2 * n);
  auto roll_strength = [&]() -> unsigned {
    if (!params_.heterogeneous) return 1;
    return static_cast<unsigned>(rng.range(1, params_.max_sybils));
  };
  for (PhysicalNode& node : physicals_) node.strength = roll_strength();

  alive_.reserve(n);
  waiting_.reserve(n);
  alive_pos_.assign(physicals_.size(), kNotAlive);
  home_shard_.assign(physicals_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    alive_pos_[i] = static_cast<std::uint32_t>(alive_.size());
    alive_.push_back(static_cast<NodeIndex>(i));
  }
  for (std::size_t i = n; i < 2 * n; ++i) {
    waiting_.push_back(static_cast<NodeIndex>(i));
  }

  // Place the initially alive nodes at SHA-1 IDs: the first n distinct
  // values of the hash stream, in the order they are drawn.  One batch of
  // n draws fills the ring in one bulk load.  Only if two draws repeat an
  // id (~n^2 / 2^65) does the load stop at the first repeat; the rest of
  // the batch and then fresh draws join one by one, each drawn id that
  // is already on the ring being passed over.  So the RNG yields one value
  // per placed node plus one per repeat, exactly as sequential
  // hash_u64(rng()) does, and the construction stream the task keys read
  // next is never over-drawn.  Slots come out dense, 0..n-1.
  {
    std::vector<Uint160> ids(n);
    draw_hashed(rng, ids);
    std::size_t placed = ring_.bulk_load(ids, alive_);
    for (std::size_t i = 0; i < placed; ++i) {
      physicals_[alive_[i]].vnode_slots.push_back(static_cast<Slot>(i));
      home_shard_[alive_[i]] =
          static_cast<std::uint8_t>(support::arc_shard(ids[i], kTickShards));
    }
    FlatRing::Cursor at;
    for (std::size_t next = placed + 1; next < n; ++next) {
      at = ring_.lower_bound(ids[next]);
      if (!ring_.holds(at, ids[next])) {
        insert_vnode(alive_[placed++], ids[next], at, /*is_sybil=*/false);
      }
    }
    while (placed < n) {
      const Uint160 id = fresh_ring_id(rng, at);
      insert_vnode(alive_[placed++], id, at, /*is_sybil=*/false);
    }
  }
  for (const NodeIndex idx : alive_) initial_capacity_ += work_per_tick(idx);

  // Streamed provisioning: no tasks exist at tick 0 — the engine's
  // TaskStream injects each tick's arrivals through inject_tasks(), which
  // raises remaining_/total_tasks_ as they land.  The node-placement RNG
  // sequence above is identical in both modes.
  if (params_.provisioning == TaskProvisioning::kStreamed) return;

  // Assign SHA-1-keyed tasks to their owner arcs: owner of key k is the
  // first vnode clockwise at or after k.  Draw every key, resolve all
  // owner slots in one sorted sweep, reserve each TaskStore exactly, then
  // append in draw order — so no bucket ever reallocates mid-fill.
  // Assignment draws nothing, so the RNG sequence is the one key per
  // draw of the incremental construction, and appending in draw order
  // keeps every TaskStore's contents bit-identical to it.
  std::vector<Uint160> keys(params_.total_tasks);
  draw_hashed(rng, keys);
  std::vector<Slot> owners(keys.size());
  {
    // Scoped so the sort scratch is freed before the stores are sized.
    FlatRing::CoverScratch scratch;
    ring_.cover_sorted(keys, owners, scratch);
  }
  // Placement hands out slots densely as 0..n-1, so a plain vector
  // indexed by slot serves as the bucket counter.
  std::vector<std::uint32_t> bucket_sizes(n, 0);
  for (const Slot slot : owners) ++bucket_sizes[slot];
  for (Slot slot = 0; slot < bucket_sizes.size(); ++slot) {
    if (bucket_sizes[slot] != 0) ring_.tasks(slot).reserve(bucket_sizes[slot]);
  }
  append_tasks(keys, owners);
}

std::uint64_t World::work_per_tick(NodeIndex idx) const {
  if (params_.work_measure == WorkMeasure::kStrengthPerTick) {
    return physicals_[idx].strength;
  }
  return 1;
}

unsigned World::sybil_cap(NodeIndex idx) const {
  return params_.heterogeneous ? physicals_[idx].strength
                               : params_.max_sybils;
}

std::vector<std::uint64_t> World::alive_workloads() const {
  std::vector<std::uint64_t> loads;
  loads.reserve(alive_.size());
  for (const NodeIndex idx : alive_) {
    loads.push_back(physicals_[idx].workload);
  }
  return loads;
}

ArcView World::arc_of(Slot slot) const {
  return view_at(ring_.cursor_of(slot));
}

World::ArcWalk World::successor_arcs(Slot slot, std::size_t k) const {
  return ArcWalk(this, ring_.cursor_of(slot), k, /*forward=*/true);
}

World::ArcWalk World::predecessor_arcs(Slot slot, std::size_t k) const {
  return ArcWalk(this, ring_.cursor_of(slot), k, /*forward=*/false);
}

World::ArcWalk World::walk_from_first(std::size_t k, bool clockwise) const {
  return ArcWalk(this, ring_.first(), k, clockwise);
}

ArcView World::arc_covering(const Uint160& point) const {
  return view_at(ring_.cover(point));
}

std::optional<Uint160> World::nth_task_key(const ArcView& arc,
                                           std::uint64_t n) const {
  DHTLB_ASSERT(ring_.id_of(arc.slot) == arc.id,
               "nth_task_key: arc " << arc.id << " is stale");
  const auto& keys = ring_.tasks(arc.slot).keys();
  if (n >= keys.size()) return std::nullopt;
  // Order keys by clockwise distance from the arc start so wrapping
  // arcs sort correctly, then select the n-th along the arc.
  const Uint160& start = arc.pred;
  std::vector<Uint160> offsets;
  offsets.reserve(keys.size());
  for (const auto& k : keys) {
    offsets.push_back(support::clockwise_distance(start, k));
  }
  const auto nth = offsets.begin() + static_cast<std::ptrdiff_t>(n);
  std::nth_element(offsets.begin(), nth, offsets.end());
  return start + *nth;
}

Uint160 World::fresh_ring_id(support::Rng& rng, FlatRing::Cursor& at) const {
  // SHA-1 of a random 64-bit value (§V: "Nodes obtain an ID, drawn from
  // a call to SHA1").  Collisions are ~2^-160 but re-draw regardless.
  for (;;) {
    const Uint160 id = hashing::Sha1::hash_u64(rng());
    at = ring_.lower_bound(id);
    if (!ring_.holds(at, id)) return id;
  }
}

std::uint64_t World::insert_vnode(NodeIndex owner, const Uint160& id,
                                  const FlatRing::Cursor& at,
                                  bool is_sybil) {
  // The vnode currently covering `id` (first vnode clockwise at or
  // after it) is `at`, wrapped past the top; the new vnode takes the
  // keys in (pred, id] from it.
  const FlatRing::Cursor succ = ring_.wrap(at);
  const Slot succ_slot = ring_.slot_at(succ);
  const Uint160 pred_id = ring_.id_at(ring_.prev(succ));

  // Insert before splitting: the new vnode's store exists once the
  // insert hands out its slot.  Arena growth never moves a payload, and
  // slots are stable, so succ_slot and its store survive the mutation
  // even though the cursor doesn't.
  const Slot slot = ring_.insert_at(at, id, owner, is_sybil);
  const std::uint64_t acquired = ring_.tasks(succ_slot).split_arc_into(
      pred_id, id, ring_.tasks(slot));
  physicals_[ring_.owner(succ_slot)].workload -= acquired;
  physicals_[owner].workload += acquired;

  physicals_[owner].vnode_slots.push_back(slot);
  if (!is_sybil) {
    home_shard_[owner] =
        static_cast<std::uint8_t>(support::arc_shard(id, kTickShards));
  }
  return acquired;
}

std::optional<std::uint64_t> World::create_sybil(NodeIndex owner,
                                                 Uint160 id) {
  // One search: the collision probe's cursor is the insert position.
  const FlatRing::Cursor at = ring_.lower_bound(id);
  if (ring_.holds(at, id)) return std::nullopt;
  return insert_vnode(owner, id, at, /*is_sybil=*/true);
}

void World::remove_vnode(Slot slot) {
  DHTLB_CHECK(ring_.size() > 1, "remove_vnode: removing "
                                    << ring_.id_of(slot)
                                    << " would empty the ring");
  // One search: the merge does not touch the index, so the vnode's
  // cursor still addresses it for the erase.
  const FlatRing::Cursor cursor = ring_.cursor_of(slot);
  const Slot succ_slot = ring_.slot_at(ring_.next(cursor));
  const std::uint64_t moved =
      ring_.tasks(succ_slot).merge_from(ring_.tasks(slot));
  physicals_[ring_.owner(slot)].workload -= moved;
  physicals_[ring_.owner(succ_slot)].workload += moved;
  ring_.erase_at(cursor);
}

void World::remove_sybils(NodeIndex owner) {
  auto& slots = physicals_[owner].vnode_slots;
  // slots[0] is the primary; everything after it is a Sybil.
  while (slots.size() > 1) {
    remove_vnode(slots.back());
    slots.pop_back();
  }
}

std::optional<std::uint64_t> World::move_vnode(Slot old_slot,
                                               const Uint160& new_id) {
  const Uint160 old_id = ring_.id_of(old_slot);
  if (new_id == old_id) return std::nullopt;
  const FlatRing::Cursor at = ring_.lower_bound(new_id);
  if (ring_.holds(at, new_id)) return std::nullopt;
  if (ring_.size() < 2) return std::nullopt;  // alone: a move is a no-op
  const FlatRing::Cursor cursor = ring_.cursor_of(old_slot);
  const NodeIndex owner = ring_.owner(old_slot);
  const bool is_sybil = ring_.is_sybil(old_slot);
  const Uint160 pred = ring_.id_at(ring_.prev(cursor));
  const Uint160 succ = ring_.id_at(ring_.next(cursor));
  // The new position must sit strictly between the old neighbors so only
  // the two arcs adjacent to old_id change hands.  With exactly two
  // vnodes pred == succ and the eligible region is the whole ring minus
  // that single point — in_open_arc already treats (a, a) that way.
  if (!support::in_open_arc(new_id, pred, succ)) return std::nullopt;
  const bool toward_pred = support::in_open_arc(new_id, pred, old_id);

  // Insert-then-remove reuses the audited split/merge primitives:
  //   shed (new_id counterclockwise of old_id): cover(new_id) is old_id
  //     itself, so the insert splits our own arc at new_id (keys in
  //     (pred, new_id] stay with the owner at the new vnode); removing
  //     old_id then merges the remainder (new_id, old_id] into the old
  //     successor — that remainder is what changed owner.
  //   acquire (clockwise): the insert splits the successor's arc,
  //     pulling (old_id, new_id] over to the owner; removing old_id
  //     merges its untouched keys into the new vnode, a self-transfer.
  const std::uint64_t acquired = insert_vnode(owner, new_id, at, is_sybil);
  const std::uint64_t shed = ring_.tasks(old_slot).size();
  remove_vnode(old_slot);

  // insert_vnode appended the relocated vnode's slot to the owner's
  // list; move it into old_slot's position so a moved primary stays at
  // vnode_slots[0] (sybil_count/home_shard depend on that).
  auto& slots = physicals_[owner].vnode_slots;
  const auto old_pos = std::find(slots.begin(), slots.end() - 1, old_slot);
  DHTLB_ASSERT(old_pos != slots.end() - 1,
               "move_vnode: owner " << owner << " does not list " << old_id);
  *old_pos = slots.back();
  slots.pop_back();
  return toward_pred ? shed : acquired;
}

bool World::depart(NodeIndex idx) {
  DHTLB_CHECK(is_alive(idx), "depart: node " << idx << " is not alive");
  PhysicalNode& node = physicals_[idx];
  if (node.vnode_slots.size() >= ring_.size()) {
    return false;  // would empty the ring — nobody left to inherit tasks
  }
  // Remove Sybils first, then the primary; each merge hands tasks to the
  // ring successor exactly as the active-backup model prescribes.
  while (!node.vnode_slots.empty()) {
    remove_vnode(node.vnode_slots.back());
    node.vnode_slots.pop_back();
  }
  DHTLB_ASSERT(node.workload == 0,
               "depart: node " << idx << " left the ring still holding "
                               << node.workload << " tasks");
  // Swap-pop through the position index: O(1) where std::erase's linear
  // scan made churn ticks quadratic in the alive population.
  const std::uint32_t pos = alive_pos_[idx];
  DHTLB_ASSERT(pos < alive_.size() && alive_[pos] == idx,
               "depart: alive_pos_ stale for node " << idx);
  alive_[pos] = alive_.back();
  alive_pos_[alive_[pos]] = pos;
  alive_.pop_back();
  alive_pos_[idx] = kNotAlive;
  waiting_.push_back(idx);
  return true;
}

std::optional<NodeIndex> World::join_from_pool(support::Rng& id_rng) {
  if (waiting_.empty()) return std::nullopt;
  const NodeIndex idx = waiting_.back();
  waiting_.pop_back();
  alive_pos_[idx] = static_cast<std::uint32_t>(alive_.size());
  alive_.push_back(idx);
  FlatRing::Cursor at;
  const Uint160 id = fresh_ring_id(id_rng, at);
  insert_vnode(idx, id, at, /*is_sybil=*/false);
  return idx;
}

std::optional<std::uint64_t> World::join_at(NodeIndex idx,
                                            const Uint160& id) {
  DHTLB_CHECK(idx < physicals_.size() && !is_alive(idx),
              "join_at: node " << idx << " is not waiting");
  const FlatRing::Cursor at = ring_.lower_bound(id);
  if (ring_.holds(at, id)) return std::nullopt;
  waiting_.erase(std::find(waiting_.begin(), waiting_.end(), idx));
  alive_pos_[idx] = static_cast<std::uint32_t>(alive_.size());
  alive_.push_back(idx);
  return insert_vnode(idx, id, at, /*is_sybil=*/false);
}

std::uint64_t World::consume_local(NodeIndex idx, std::uint64_t budget,
                                   support::Rng& rng) {
  PhysicalNode& node = physicals_[idx];
  std::uint64_t consumed = 0;
  while (consumed < budget && node.workload > 0) {
    // Work on the most-loaded vnode first; within a vnode, task order is
    // immaterial (uniform random pick, see TaskStore::consume_random).
    TaskStore& busiest = ring_.tasks(busiest_vnode(idx));
    if (busiest.empty()) break;
    const std::uint64_t take =
        std::min<std::uint64_t>(budget - consumed, busiest.size());
    for (std::uint64_t i = 0; i < take; ++i) {
      busiest.consume_random(rng);
    }
    consumed += take;
    node.workload -= take;
  }
  return consumed;
}

std::uint64_t World::consume_members(std::span<const NodeIndex> members,
                                     support::Rng& rng) {
  std::uint64_t consumed = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    prefetch_ahead(members, i);
    const NodeIndex idx = members[i];
    consumed += consume_local(idx, work_per_tick(idx), rng);
  }
  return consumed;
}

Slot World::busiest_vnode(NodeIndex idx) const {
  const std::vector<Slot>& slots = physicals_[idx].vnode_slots;
  DHTLB_ASSERT(!slots.empty(),
               "busiest_vnode: node " << idx << " is not in the ring");
  Slot busiest = slots.front();
  std::size_t most = ring_.tasks(busiest).size();
  for (const Slot slot : slots) {
    const std::size_t size = ring_.tasks(slot).size();
    if (size > most) {
      busiest = slot;
      most = size;
    }
  }
  return busiest;
}

void World::debit_remaining(std::uint64_t consumed) {
  DHTLB_CHECK(consumed <= remaining_,
              "debit_remaining: folded consumption " << consumed
                  << " exceeds remaining " << remaining_);
  remaining_ -= consumed;
}

void World::inject_tasks(std::span<const TaskKey> keys) {
  cover_slots_.resize(keys.size());
  ring_.cover_sorted(keys, cover_slots_, cover_scratch_);
  append_tasks(keys, cover_slots_);
}

void World::append_tasks(std::span<const TaskKey> keys,
                         std::span<const Slot> slots) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Slot slot = slots[i];
    ring_.tasks(slot).add(keys[i]);
    ++physicals_[ring_.owner(slot)].workload;
  }
  remaining_ += keys.size();
  total_tasks_ += keys.size();
}

void World::set_churn_rate(double rate) {
  DHTLB_CHECK(rate >= 0.0 && rate <= 1.0,
              "set_churn_rate: rate " << rate << " outside [0, 1]");
  params_.churn_rate = rate;
}

void World::set_sybil_threshold(std::uint64_t threshold) {
  params_.sybil_threshold = threshold;
}

std::vector<Uint160> World::ring_ids() const {
  std::vector<Uint160> ids;
  ids.reserve(ring_.size());
  ring_.for_each([&](const Uint160& id, Slot) { ids.push_back(id); });
  return ids;
}

bool World::alive_index_consistent() const {
  if (alive_pos_.size() != physicals_.size() ||
      home_shard_.size() != physicals_.size()) {
    return false;
  }
  for (std::size_t pos = 0; pos < alive_.size(); ++pos) {
    const NodeIndex idx = alive_[pos];
    if (alive_pos_[idx] != pos) return false;
    if (physicals_[idx].vnode_slots.empty()) return false;
    if (home_shard_[idx] !=
        support::arc_shard(ring_.id_of(primary_slot(idx)), kTickShards)) {
      return false;
    }
  }
  std::size_t alive_positions = 0;
  for (std::size_t idx = 0; idx < alive_pos_.size(); ++idx) {
    if (alive_pos_[idx] != kNotAlive) ++alive_positions;
  }
  return alive_positions == alive_.size();
}

}  // namespace dhtlb::sim
