// Scale sweep (Table S — ours, not the paper's): wall time and peak
// memory for building a world and running 100 churn ticks at 1k, 10k,
// 100k, and 1M vnodes.  The paper simulates 1000-node networks; this
// table tracks whether the flat-ring data layer keeps the simulator
// usable at the 100k..1M scales the roadmap targets.
//
// Wall times are printed only (perfbench measures engine speed).  Each
// cell records the constructed world's vnode count and the end-state
// fingerprint after the 100 ticks, both carrying the peak RSS, so
// compare_bench.py gates values and memory.  The audited-off tick loop
// matches how large worlds are actually run (the per-tick auditor is
// O(ring + tasks)).
//
// The sweep stops at DHTLB_SCALE_MAX_NODES (default 100k, the largest
// cell in the committed baseline); the nightly scale lane raises it to
// 1M to prove the top cell still builds and ticks.
#include "repro_util.hpp"

namespace dhtlb::bench {

void tableS_scale(Session& session) {
  const std::uint64_t max_nodes =
      support::env_u64("DHTLB_SCALE_MAX_NODES", 100'000);
  std::printf("cap: %llu nodes (override with DHTLB_SCALE_MAX_NODES)\n\n",
              static_cast<unsigned long long>(max_nodes));

  support::TextTable table(
      {"vnodes", "tasks", "construct ms", "100 ticks ms", "peak RSS MiB"});

  for (const std::size_t nodes :
       {std::size_t{1'000}, std::size_t{10'000}, std::size_t{100'000},
        std::size_t{1'000'000}}) {
    if (nodes > max_nodes) {
      std::printf("(skipping %zu vnodes: above DHTLB_SCALE_MAX_NODES)\n",
                  nodes);
      continue;
    }
    sim::Params p;
    p.initial_nodes = nodes;
    p.total_tasks = 2 * nodes;
    p.churn_rate = 0.01;  // ticks must exercise joins/departs, not idle

    const WallTimer construct_timer;
    sim::Engine engine(p, session.seed());
    const double construct_ms = construct_timer.elapsed_ms();
    const auto vnodes = static_cast<double>(engine.world().vnode_count());

    engine.set_audit(false);
    // The tick loop fans shard work across DHTLB_THREADS workers; the
    // recorded outputs are thread-count independent, only wall time moves.
    engine.set_threads(session.threads());
    // Keep ticking through the full 100 even if the (small) task load
    // drains early — churn keeps the ring mutating either way.
    engine.set_pre_tick_hook([](std::uint64_t tick) { return tick <= 100; });
    const WallTimer tick_timer;
    for (int t = 0; t < 100; ++t) {
      if (!engine.step()) break;
    }
    const double ticks_ms = tick_timer.elapsed_ms();
    const std::uint64_t rss = Telemetry::current_peak_rss_bytes();

    const std::string cell = "n=" + std::to_string(nodes);
    session.record(cell + "/construct", "vnodes", vnodes, 1, rss);
    session.record(cell + "/ticks100", "state_fingerprint",
                   state_fingerprint(engine), 1, rss);

    table.add_row({std::to_string(nodes), std::to_string(2 * nodes),
                   support::format_fixed(construct_ms, 1),
                   support::format_fixed(ticks_ms, 1),
                   support::format_fixed(
                       static_cast<double>(rss) / (1024.0 * 1024.0), 1)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
