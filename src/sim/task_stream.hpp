// Streamed task provisioning: the deterministic per-tick arrival source
// behind Params::TaskProvisioning::kStreamed (see DESIGN.md §0).
//
// Preallocated mode materializes the whole job at tick 0 — 2*n*horizon
// exact 160-bit keys, ~10 GiB at 1M nodes — which is what kept the §VI
// all-strategy grid off CI at full scale.  A TaskStream instead fixes the
// *schedule* up front (a closed-form count per tick) and draws the exact
// SHA-1 keys lazily, on the tick they arrive, from per-(tick, shard) RNG
// streams derived exactly like the engine's other phase streams:
//
//   stream_seed(mix_seed(run_seed, tick), kStreamArrive, shard)
//
// The derivation depends only on logical labels, never on thread count or
// execution order, so arrivals are bit-identical at any DHTLB_THREADS —
// the same determinism contract as churn and consumption (engine.cpp's
// TickStream tree; kStreamArrive = 6 is reserved there for this file).
//
// The schedule is closed-form on purpose: cumulative(t) is O(1), so the
// engine's conservation audit can check "arrived-so-far == the schedule's
// prefix sum" every tick without replaying the stream.
#pragma once

#include <cstdint>
#include <span>

#include "sim/task_store.hpp"
#include "support/rng.hpp"

namespace dhtlb::sim {

/// RNG stream label for arrival key draws, a sibling of engine.cpp's
/// TickStream phases (1..5) under the same per-tick seed root.
inline constexpr std::uint64_t kStreamArrive = 6;

/// Fills `out` with Sha1::hash_u64(rng()) for out.size() consecutive
/// draws, in draw order — exactly what a hash_u64(rng()) loop writes —
/// drawing each fixed-size chunk's raw values first and hashing the
/// chunk in one Sha1::hash_u64_batch.  Draws exactly out.size() values.
/// The one key generator of streamed arrivals and preallocated
/// construction, and the ID generator of World's bulk load.
void draw_hashed(support::Rng& rng, std::span<support::Uint160> out);

/// Deterministic arrival schedule + lazy key source for one run.
///
/// Ticks 1..arrival_ticks each receive total_tasks/arrival_ticks tasks,
/// with the remainder spread one-per-tick over the earliest ticks, so
/// every task has arrived once tick arrival_ticks completes.  Each tick's
/// count is split the same way over kTickShards, and each (tick, shard)
/// cell draws its keys from its own RNG stream — the engine fans the
/// draws across workers, each into its own range of one tick buffer,
/// and folds the whole buffer in shard order.
class TaskStream {
 public:
  /// `arrival_ticks` must be >= 1; `run_seed` is the engine's run seed
  /// (the same value that roots the per-tick phase streams).
  TaskStream(std::uint64_t run_seed, std::uint64_t total_tasks,
             std::uint64_t arrival_ticks);

  std::uint64_t total_tasks() const { return total_tasks_; }
  std::uint64_t arrival_ticks() const { return arrival_ticks_; }

  /// Tasks arriving on 1-based tick `tick` (0 for tick 0 and for ticks
  /// past the arrival window).
  std::uint64_t count_at(std::uint64_t tick) const;

  /// Closed-form prefix sum: tasks arrived on ticks 1..tick.  O(1).
  std::uint64_t cumulative(std::uint64_t tick) const;

  /// True once every task has arrived by the end of `tick`.
  bool exhausted_after(std::uint64_t tick) const {
    return cumulative(tick) == total_tasks_;
  }

  /// `tick`'s arrivals landing in shard `shard` (same balanced split as
  /// the per-tick schedule, over kTickShards cells).
  std::uint64_t shard_count(std::uint64_t tick, std::size_t shard) const;

  /// Closed-form prefix sum: `tick`'s arrivals in shards 0..shard-1, so
  /// shard `shard` owns [shard_offset, shard_offset + shard_count) of a
  /// count_at(tick)-key buffer laid out in shard order.  O(1).
  std::uint64_t shard_offset(std::uint64_t tick, std::size_t shard) const;

  /// Fills `out` (exactly shard_count(tick, shard) keys) with shard
  /// `shard`'s keys for `tick`, drawn from the (tick, shard) stream.
  /// Thread-compatible: distinct (tick, shard) cells share no state.
  void draw_shard(std::uint64_t tick, std::size_t shard,
                  std::span<TaskKey> out) const;

 private:
  std::uint64_t run_seed_;
  std::uint64_t total_tasks_;
  std::uint64_t arrival_ticks_;
};

}  // namespace dhtlb::sim
