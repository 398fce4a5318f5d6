// task_stream — microbench of the streamed task provisioner
// (sim/task_stream.hpp): how fast the per-(tick, shard) arrival streams
// materialize exact SHA-1 keys, and a value-gated proof that the
// closed-form schedule matches what the draws actually deliver.
//
// Each cell drains one full schedule single-threaded, tick by tick and
// shard by shard in fold order — the same order the engine injects in —
// folding every key into an order-sensitive fingerprint.  The fold and
// the per-tick count identities are recorded as value records, so
// compare_bench.py pins the stream's key sequence (any change to the
// seed derivation, the shard split, or the SHA-1 path shows up as value
// drift against the committed baseline).  Wall time is printed only;
// perfbench's invite_stream_250k workload measures streamed arrivals.
#include "repro_util.hpp"
#include "sim/task_stream.hpp"
#include "sim/world.hpp"

namespace dhtlb::bench {

void task_stream(Session& session) {
  const std::uint64_t seed = session.seed();
  std::printf("%zu ring shards\n\n", sim::kTickShards);

  support::TextTable table(
      {"tasks", "window", "wall ms", "keys/ms", "fingerprint"});

  struct Cell {
    std::uint64_t tasks;
    std::uint64_t window;
  };
  for (const Cell cell : {Cell{1'000'000, 1'000}, Cell{10'000'000, 1'000}}) {
    const sim::TaskStream stream(seed, cell.tasks, cell.window);

    std::vector<sim::TaskKey> keys;
    std::uint64_t fold = support::mix_seed(cell.tasks, cell.window);
    std::uint64_t delivered = 0;
    const WallTimer timer;
    for (std::uint64_t tick = 1; tick <= cell.window; ++tick) {
      std::uint64_t tick_count = 0;
      for (std::size_t s = 0; s < sim::kTickShards; ++s) {
        keys.resize(stream.shard_count(tick, s));
        stream.draw_shard(tick, s, keys);
        for (const sim::TaskKey& key : keys) {
          fold = support::mix_seed(fold, key.low64());
        }
        tick_count += keys.size();
      }
      delivered += tick_count;
      if (tick_count != stream.count_at(tick) ||
          delivered != stream.cumulative(tick)) {
        throw std::runtime_error(
            "delivered counts diverged from the closed-form schedule at "
            "tick " + std::to_string(tick));
      }
    }
    const double wall = timer.elapsed_ms();
    if (delivered != cell.tasks || !stream.exhausted_after(cell.window)) {
      throw std::runtime_error("schedule did not deliver the whole job");
    }

    const std::uint64_t rss = Telemetry::current_peak_rss_bytes();
    const double keys_per_ms =
        wall > 0.0 ? static_cast<double>(delivered) / wall : 0.0;
    const std::string name = "tasks=" + std::to_string(cell.tasks) +
                             "/window=" + std::to_string(cell.window);
    // Low 53 bits fit a double exactly — the JSON round-trip is lossless,
    // so compare_bench.py can demand bit-equality (same trick as
    // tick_parallel's state_fingerprint).
    session.record(name, "key_fold",
                   static_cast<double>(fold & 0x1FFFFFFFFFFFFFull), 1, rss);
    table.add_row({std::to_string(cell.tasks), std::to_string(cell.window),
                   support::format_fixed(wall, 1),
                   support::format_fixed(keys_per_ms, 0),
                   std::to_string(fold & 0xFFFFFFFFFFFFFull)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
