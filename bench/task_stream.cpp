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
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/telemetry.hpp"
#include "sim/task_stream.hpp"
#include "sim/world.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace dhtlb;

}  // namespace

int main() {
  bench::Telemetry telemetry("task_stream");
  const std::uint64_t seed = support::env_seed();
  std::printf("=== task_stream — streamed provisioning draw throughput ===\n");
  std::printf("seed %llu, %zu ring shards\n\n",
              static_cast<unsigned long long>(seed), sim::kTickShards);

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
    const bench::WallTimer timer;
    for (std::uint64_t tick = 1; tick <= cell.window; ++tick) {
      std::uint64_t tick_count = 0;
      for (std::size_t s = 0; s < sim::kTickShards; ++s) {
        keys.clear();
        stream.draw_shard(tick, s, keys);
        DHTLB_CHECK(keys.size() == stream.shard_count(tick, s),
                    "task_stream: shard draw size mismatch at tick "
                        << tick << ", shard " << s);
        for (const sim::TaskKey& key : keys) {
          fold = support::mix_seed(fold, key.low64());
        }
        tick_count += keys.size();
      }
      delivered += tick_count;
      DHTLB_CHECK(tick_count == stream.count_at(tick),
                  "task_stream: shard counts disagree with the tick "
                  "schedule at tick " << tick);
      DHTLB_CHECK(delivered == stream.cumulative(tick),
                  "task_stream: delivered total diverged from the "
                  "closed-form prefix sum at tick " << tick);
    }
    const double wall = timer.elapsed_ms();
    DHTLB_CHECK(delivered == cell.tasks && stream.exhausted_after(cell.window),
                "task_stream: schedule did not deliver the whole job");

    const std::uint64_t rss = bench::Telemetry::current_peak_rss_bytes();
    const double keys_per_ms =
        wall > 0.0 ? static_cast<double>(delivered) / wall : 0.0;
    const std::string name = "tasks=" + std::to_string(cell.tasks) +
                             "/window=" + std::to_string(cell.window);
    // Low 53 bits fit a double exactly — the JSON round-trip is lossless,
    // so compare_bench.py can demand bit-equality (same trick as
    // tick_parallel's state_fingerprint).
    telemetry.record(name, "key_fold",
                     static_cast<double>(fold & 0x1FFFFFFFFFFFFFull), 1, rss);
    table.add_row({std::to_string(cell.tasks), std::to_string(cell.window),
                   support::format_fixed(wall, 1),
                   support::format_fixed(keys_per_ms, 0),
                   std::to_string(fold & 0xFFFFFFFFFFFFFull)});
  }
  std::printf("%s\n", table.render().c_str());

  if (telemetry.flush()) {
    std::printf("[telemetry] wrote %s\n", telemetry.output_path().c_str());
  }
  return 0;
}
