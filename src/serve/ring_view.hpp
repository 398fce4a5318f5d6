// RingView: a snapshot of the simulated ring, frozen at a tick barrier
// and consumed lock-free by any number of reader threads; immutable
// while they read it, refrozen in place once they are done.
//
// The serving plane (DESIGN.md "Serving plane") generates the ring
// centrally, as Envoy's ring-hash balancer does: at each tick barrier the
// Service freezes the flat ring into this struct-of-arrays copy, and its
// readers route key lookups against it without ever touching a lock or
// the live (mutating) World.  It is a copy rather than FlatRing's own
// index because readers serve batch t while tick t+1 mutates the ring.
//
// A view answers two questions:
//   * cover(key)  — which vnode owns this key?  Identical semantics to
//     FlatRing::cover ("first vnode clockwise at or after the point,
//     wrapping past zero"); the differential test proves bit-equality
//     against direct flat-ring successor walks.
//   * route(key, origin) — how many hops would a Chord lookup take?
//     A greedy perfect-finger walk: from the current vnode, jump to the
//     vnode covering id + 2^floor(log2(clockwise distance to key)) — the
//     longest finger that does not overshoot.  Every hop at least halves
//     the remaining clockwise distance, so the walk terminates in
//     <= 160 hops and averages ~log2(ring size), the textbook Chord
//     bound.  This prices each lookup in hops as seen by user traffic,
//     which the tick loop never measures.
//
// Both answer through a radix directory built at freeze time: with
// w = bit_width(size), dir_[j] is the first index whose id has top w
// bits >= j, so cover() searches only the ids of the key's bucket
// [dir_[j], dir_[j+1]) — fewer than one id on average, since ids are
// SHA-1 outputs, and O(log) ids even when Sybils cluster.  Each hop is
// one such cover of its finger point, so a hop costs O(1) whatever the
// ring size — but O(1) cache misses, a dir_ entry and then a bucket,
// each waiting on the last.
//
// The ids are split in two arrays, 20 bytes per vnode as one Uint160
// array would be: prefixes_, each id's top 64 bits, which every search
// and every hop reads, and tails_, its low 96 bits, which they almost
// never read.  A bucket search compares 64-bit prefixes
// (support::prefix_lower_bound); only when it lands on a prefix equal
// to the point's — clustered Sybils, not SHA-1 ids — does it rebuild
// the full point and finish on full ids, tails included.  A hop's
// finger comes from the prefix distance d = key_hi - cur_hi (mod 2^64)
// too: when d >= 2 and d is not a power of two, the borrow from the low
// 96 bits cannot change the distance's bit width, so the finger is
// 2^(95 + bit_width(d)) and its point's prefix is cur_hi +
// 2^(bit_width(d) - 1), with cur's own tail.  Any other d (0, 1, a
// power of two) takes the full 160-bit distance from both tails.  Every
// route index and hop count is exactly the full-id walk's.
//
// route_batch() is the one hop loop, and it overlaps those misses
// across independent lookups.  It keeps kRouteLanes lookups in flight
// and advances all of them one cover per round, in three lockstep
// stages: (1) compute every lane's point prefix (the key's first, to
// find the target, then each finger point's) and touch its dir_ entry;
// (2) read every lane's bucket bounds and touch the bucket's first
// prefix; (3) search every bucket, count the hop, and retire the lanes
// that reached their target, refilling them from the batch.  A round
// thus reads dir_ and prefixes_, and tails_ only on a tie or an
// ambiguous borrow.  By the time a stage reads a line, the stage
// before has touched it for every lane, so a round pays about one miss
// latency instead of one per lane.  A lookup's hops do not depend on
// its neighbours, so every result is exactly what a walk on its own
// would give; route() is a batch of one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/flat_ring.hpp"
#include "sim/world.hpp"
#include "support/uint160.hpp"

namespace dhtlb::serve {

using sim::NodeIndex;
using support::Uint160;

class RingView {
 public:
  /// An empty view (no vnodes) — what a Service holds before attach.
  RingView() = default;

  /// Hard ceiling on route hops.  Unreachable by construction (the
  /// clockwise distance strictly shrinks every hop and has 160 bits),
  /// so hitting it means the view is corrupt; route_batch() DHTLB_CHECKs.
  static constexpr std::uint32_t kMaxHops = 200;

  /// Lookups route_batch() keeps in flight.  A constant of the walk, not
  /// a knob: 8, 16 and 32 lanes measured the same on serve_zipf_100k
  /// (EXPERIMENTS.md, "Interleaved route walks"), and the lane state of
  /// 16 stays within a few L1 lines per stage.
  static constexpr std::size_t kRouteLanes = 16;

  /// Freezes the world's ring into a new snapshot: refreeze() on an
  /// empty view.
  static RingView freeze(const sim::World& world, std::uint64_t tick);

  /// Replaces this view's contents with the world's ring, reusing its
  /// buffers.  O(ring).  `tick` labels the view (0 = pre-run state).
  /// The ring must be non-empty (a live World always is), and no reader
  /// may hold the view while it refills.
  void refreeze(const sim::World& world, std::uint64_t tick);

  std::uint64_t tick() const { return tick_; }
  std::size_t size() const { return prefixes_.size(); }
  bool empty() const { return prefixes_.empty(); }

  /// Physical-node count at freeze time.  Fixed for a whole run (the
  /// waiting pool is preallocated), so per-owner hit arrays sized once
  /// stay valid across every view of the run.
  std::size_t owner_count() const { return owner_count_; }

  /// The full id of vnode i, rebuilt from its prefix and its tail.
  Uint160 id_at(std::size_t i) const {
    const Tail& tail = tails_[i];
    return Uint160{{static_cast<std::uint32_t>(prefixes_[i] >> 32),
                    static_cast<std::uint32_t>(prefixes_[i]), tail[0],
                    tail[1], tail[2]}};
  }
  NodeIndex owner_at(std::size_t i) const { return owners_[i] & ~kSybilBit; }
  bool sybil_at(std::size_t i) const { return (owners_[i] & kSybilBit) != 0; }

  /// Index of the vnode whose ownership arc covers `key`: the first
  /// vnode clockwise at or after it, wrapping past zero — exactly
  /// FlatRing::cover on the frozen ring.  The view must not be empty.
  std::size_t cover(const Uint160& key) const;

  /// Clockwise neighbor, wrapping — the successor walk on the snapshot.
  std::size_t next(std::size_t i) const {
    return i + 1 == prefixes_.size() ? 0 : i + 1;
  }

  struct Route {
    std::size_t index = 0;   // the covering vnode (== cover(key))
    std::uint32_t hops = 0;  // finger-table hops from the origin
  };

  /// Simulates a Chord lookup for `key` starting at vnode `origin`
  /// (an index into this view) with a perfect finger table: a
  /// route_batch() of one.  Pure and lock-free: reads only the frozen
  /// arrays.  The view must not be empty.
  Route route(const Uint160& key, std::size_t origin) const;

  /// out[i] = route(keys[i], origins[i]) for every i, with up to
  /// kRouteLanes lookups in flight at once (see the header comment).
  /// The three spans must have one size; the view must not be empty.
  void route_batch(std::span<const Uint160> keys,
                   std::span<const std::size_t> origins,
                   std::span<Route> out) const;

 private:
  /// An id's low 96 bits, most significant limb first.
  using Tail = std::array<std::uint32_t, 3>;

  /// The Sybil flag's bit in an owners_ word; freeze checks that every
  /// owner index fits below it.
  static constexpr NodeIndex kSybilBit = NodeIndex{1} << 31;

  /// Bucket of an id in dir_: the top dir_bits_ bits of its prefix.
  std::size_t bucket(std::uint64_t prefix) const {
    return static_cast<std::size_t>(prefix >> (64 - dir_bits_));
  }

  /// The vnode covering a point whose top 64 bits are `prefix`, given
  /// its bucket's bounds [dir_[j], dir_[j+1]]: every id below the
  /// bucket is < point and every id above it > point, so the answer
  /// lies in that range.  `full()` yields the whole point; it is called
  /// only when an id in the bucket has the point's prefix.
  template <typename FullPoint>
  std::size_t cover_in(std::size_t lo, std::size_t hi, std::uint64_t prefix,
                       const FullPoint& full) const;

  // Struct-of-arrays, ascending-id order (the freeze of FlatRing's
  // index): the searches touch dir_ and prefixes_, tails_ only on a
  // prefix tie or an ambiguous borrow, and owners_ only for the final
  // cover.  An owners_ word is the owner's index, with kSybilBit set
  // on a Sybil vnode.
  std::vector<std::uint64_t> prefixes_;
  std::vector<Tail> tails_;
  std::vector<NodeIndex> owners_;
  // Radix directory: 2^dir_bits_ + 1 entries, dir_[j] = first index
  // whose bucket is >= j; the last entry is size().
  std::vector<std::uint32_t> dir_;
  int dir_bits_ = 0;
  std::size_t owner_count_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace dhtlb::serve
