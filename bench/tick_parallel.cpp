// tick_parallel — thread-scaling curve of the sharded parallel tick
// engine (DESIGN.md "Parallel tick engine").
//
// For each world size (100k vnodes always; 1M when DHTLB_SCALE_MAX_NODES
// allows, as in tableS_scale) the same (params, seed) world is churned
// for a fixed number of ticks at 1, 2, 4, and 8 worker threads.  The
// thread counts are set explicitly per cell — DHTLB_THREADS does not
// apply here — because the curve itself is the measurement.
//
// Telemetry per (n, threads) cell:
//   state_fingerprint  a fold of the post-run snapshot (workloads,
//                      remaining tasks, membership counts), carrying the
//                      cell's peak RSS
//   speedup_vs_t1      wall(t1) / wall(tN), the one wall-derived record:
//                      exempt from value checks (a ratio of clocks), and
//                      the nightly lane gates the best of these with
//                      compare_bench.py --min-speedup
// plus one state_fingerprint per n.  The tick-loop wall time is printed
// only (perfbench's invite_stream_250k measures one-thread engine
// speed).  The run fails if any thread count produces a different
// fingerprint — every run of this bench is therefore also a 1-vs-N
// determinism check — and the recorded values let compare_bench.py
// enforce the same identity against the committed baseline across
// machines.
#include "repro_util.hpp"

namespace dhtlb::bench {

void tick_parallel(Session& session) {
  const std::size_t max_nodes = static_cast<std::size_t>(
      support::env_u64("DHTLB_SCALE_MAX_NODES", 100'000));
  std::printf("cap: %zu nodes (override with DHTLB_SCALE_MAX_NODES), "
              "%zu ring shards\n\n",
              max_nodes, sim::kTickShards);

  support::TextTable table(
      {"vnodes", "threads", "ticks", "wall ms", "speedup", "fingerprint"});

  for (const std::size_t nodes :
       {std::size_t{100'000}, std::size_t{1'000'000}}) {
    if (nodes > max_nodes) {
      std::printf("(skipping %zu vnodes: above DHTLB_SCALE_MAX_NODES)\n",
                  nodes);
      continue;
    }
    // Churn-heavy so every tick exercises the full shard pipeline:
    // parallel departure draws, the sequential cross-arc fold, joins
    // splitting foreign arcs, and parallel consumption.
    sim::Params p;
    p.initial_nodes = nodes;
    p.total_tasks = 2 * nodes;
    p.churn_rate = 0.02;
    const int ticks = nodes >= 1'000'000 ? 15 : 40;

    double wall_t1 = 0.0;
    std::uint64_t print_t1 = 0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      sim::Engine engine(p, session.seed());
      engine.set_audit(false);
      engine.set_threads(threads);
      engine.set_pre_tick_hook(
          [ticks](std::uint64_t tick) {
            return tick <= static_cast<std::uint64_t>(ticks);
          });
      const WallTimer timer;
      for (int t = 0; t < ticks; ++t) {
        if (!engine.step()) break;
      }
      const double wall = timer.elapsed_ms();
      const auto print =
          static_cast<std::uint64_t>(state_fingerprint(engine));
      const std::uint64_t rss = Telemetry::current_peak_rss_bytes();

      if (threads == 1) {
        wall_t1 = wall;
        print_t1 = print;
      }
      if (print != print_t1) {
        throw std::runtime_error(
            "state fingerprint diverged at " + std::to_string(threads) +
            " threads (n=" + std::to_string(nodes) +
            ") — the engine's outputs depend on thread count");
      }

      const double speedup = wall > 0.0 ? wall_t1 / wall : 0.0;
      const std::string cell =
          "n=" + std::to_string(nodes) + "/t" + std::to_string(threads);
      session.record(cell, "state_fingerprint", static_cast<double>(print), 1,
                     rss);
      session.record(cell, "speedup_vs_t1", speedup, 1);
      table.add_row({std::to_string(nodes), std::to_string(threads),
                     std::to_string(ticks),
                     support::format_fixed(wall, 1),
                     support::format_fixed(speedup, 2),
                     std::to_string(print & 0xFFFFFFFFFFFFFull)});
    }
    // The fingerprint is identical across thread counts (checked above);
    // the per-world-size record is the one the baseline has always held.
    session.record("n=" + std::to_string(nodes), "state_fingerprint",
                   static_cast<double>(print_t1), 1);
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
