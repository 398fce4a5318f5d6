#include "sim/task_stream.hpp"

#include <algorithm>
#include <array>

#include "hashing/sha1.hpp"
#include "sim/world.hpp"  // kTickShards
#include "support/check.hpp"

namespace dhtlb::sim {

namespace {

// Balanced split of `total` over `cells`: cell i gets the quotient plus
// one unit of the remainder iff i < total % cells.  Used twice — ticks
// over the arrival window, then one tick's count over the shards — so
// both levels of the schedule are closed-form.
std::uint64_t cell_share(std::uint64_t total, std::uint64_t cells,
                         std::uint64_t cell) {
  return total / cells + (cell < total % cells ? 1 : 0);
}

// Sum of cell_share over cells 0..cell-1: cell quotients plus one
// remainder unit for each of the first min(cell, total % cells) cells.
std::uint64_t cell_prefix(std::uint64_t total, std::uint64_t cells,
                          std::uint64_t cell) {
  return cell * (total / cells) + std::min(cell, total % cells);
}

}  // namespace

void draw_hashed(support::Rng& rng, std::span<support::Uint160> out) {
  // Small enough to stay on the stack, large enough that the batch
  // kernel runs full.
  std::array<std::uint64_t, 256> raw{};
  for (std::size_t begin = 0; begin < out.size(); begin += raw.size()) {
    const std::size_t count = std::min(raw.size(), out.size() - begin);
    for (std::size_t i = 0; i < count; ++i) raw[i] = rng();
    hashing::Sha1::hash_u64_batch(std::span(raw).first(count),
                                  out.subspan(begin, count));
  }
}

TaskStream::TaskStream(std::uint64_t run_seed, std::uint64_t total_tasks,
                       std::uint64_t arrival_ticks)
    : run_seed_(run_seed), total_tasks_(total_tasks),
      arrival_ticks_(arrival_ticks) {
  DHTLB_CHECK(arrival_ticks_ >= 1,
              "TaskStream: arrival_ticks must be >= 1");
}

std::uint64_t TaskStream::count_at(std::uint64_t tick) const {
  if (tick == 0 || tick > arrival_ticks_) return 0;
  return cell_share(total_tasks_, arrival_ticks_, tick - 1);
}

std::uint64_t TaskStream::cumulative(std::uint64_t tick) const {
  if (tick >= arrival_ticks_) return total_tasks_;
  return cell_prefix(total_tasks_, arrival_ticks_, tick);  // ticks 1..tick
}

std::uint64_t TaskStream::shard_count(std::uint64_t tick,
                                      std::size_t shard) const {
  return cell_share(count_at(tick), kTickShards, shard);
}

std::uint64_t TaskStream::shard_offset(std::uint64_t tick,
                                       std::size_t shard) const {
  return cell_prefix(count_at(tick), kTickShards, shard);
}

void TaskStream::draw_shard(std::uint64_t tick, std::size_t shard,
                            std::span<TaskKey> out) const {
  DHTLB_CHECK(out.size() == shard_count(tick, shard),
              "TaskStream::draw_shard: " << out.size() << " keys for a cell of "
                                         << shard_count(tick, shard));
  if (out.empty()) return;
  // Same derivation shape as the engine's churn/consume streams: per-tick
  // root, then (phase, shard).  Keys are SHA-1 images of the raw draws,
  // exactly like preallocated construction and scenario injection.
  support::Rng rng(support::stream_seed(support::mix_seed(run_seed_, tick),
                                        kStreamArrive, shard));
  draw_hashed(rng, out);
}

}  // namespace dhtlb::sim
