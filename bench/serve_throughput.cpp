// serve_throughput — reader-scaling curve of the serving plane
// (DESIGN.md §9 "Serving plane"): batched key lookups over frozen ring
// snapshots while the sharded tick engine churns underneath.
//
// For each traffic model (uniform, zipf, hotspot) the same (params,
// seed) world is churned for a fixed number of ticks with the
// serve::Service attached at 1, 2, 4, and 8 reader threads.  The
// reader counts are set explicitly per cell — they are the curve being
// measured — while the engine itself stays single-threaded so the
// serve plane, not the shard fan, dominates the wall time.
//
// Wall time, lookups/s and the speedup over one reader are printed
// only (perfbench's serve_zipf_100k workload measures serve speed).
// Telemetry per (traffic, readers) cell is the run's state_fingerprint,
// carrying the cell's peak RSS, plus per-traffic result rows (lookups,
// hop percentiles, Sybil absorption, owner-load skew, view lifecycle
// counts) recorded once — the run fails if any reader count
// produces different results, so every run is also a 1-vs-N serve
// determinism check, and the recorded values let compare_bench.py
// enforce identity against the committed baseline across machines.
#include "repro_util.hpp"
#include "serve/service.hpp"

namespace dhtlb::bench {
namespace {

/// Order-sensitive fold of every integer output of a serve run: one
/// extra lookup, a reordered fold, or a hop miscount changes it.
std::uint64_t fingerprint(const serve::Report& rep) {
  std::uint64_t h = support::mix_seed(rep.lookups, rep.batches);
  h = support::mix_seed(h, rep.hops_total);
  h = support::mix_seed(h, rep.hops_max);
  h = support::mix_seed(h, rep.owners_hit);
  h = support::mix_seed(h, rep.views.published);
  h = support::mix_seed(h, rep.views.reclaimed);
  return h;
}

}  // namespace

void serve_throughput(Session& session) {
  const std::uint64_t seed = session.seed();
  const int ticks = 30;

  sim::Params p;
  p.initial_nodes = 20'000;
  p.total_tasks = 40'000;
  p.churn_rate = 0.02;

  std::printf("%zu vnodes, %d ticks, 20000 lookups/tick, %zu serve "
              "shards\n\n",
              static_cast<std::size_t>(p.initial_nodes), ticks,
              serve::kServeShards);

  support::TextTable table({"traffic", "readers", "wall ms", "klookups/s",
                            "speedup", "hops p99", "fingerprint"});

  for (const serve::Traffic traffic :
       {serve::Traffic::kUniform, serve::Traffic::kZipf,
        serve::Traffic::kHotspot}) {
    const std::string tname(serve::traffic_name(traffic));
    double wall_r1 = 0.0;
    std::uint64_t print_r1 = 0;
    serve::Report rep_r1;
    for (const std::size_t readers :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      serve::Config config;
      config.traffic = traffic;
      config.readers = readers;
      config.lookups_per_tick = 20'000;

      sim::Engine engine(p, seed);
      engine.set_audit(false);
      engine.set_pre_tick_hook([ticks](std::uint64_t tick) {
        return tick <= static_cast<std::uint64_t>(ticks);
      });
      serve::Service service(config, seed);
      service.attach(engine);

      const WallTimer timer;
      for (int t = 0; t < ticks; ++t) {
        if (!engine.step()) break;
      }
      service.drain();
      const double wall = timer.elapsed_ms();
      const serve::Report rep = service.report();
      const std::uint64_t print = fingerprint(rep);
      const std::uint64_t rss = Telemetry::current_peak_rss_bytes();

      if (readers == 1) {
        wall_r1 = wall;
        print_r1 = print;
        rep_r1 = rep;
      }
      if (print != print_r1) {
        throw std::runtime_error(
            "results diverged at " + std::to_string(readers) +
            " readers (traffic " + tname +
            ") — serve outputs depend on the reader count");
      }

      const double speedup = wall > 0.0 ? wall_r1 / wall : 0.0;
      const double klps =
          wall > 0.0 ? static_cast<double>(rep.lookups) / wall : 0.0;
      const std::string cell = tname + "/r" + std::to_string(readers);
      session.record(cell, "state_fingerprint",
                     static_cast<double>(print & 0x1FFFFFFFFFFFFFull), 1, rss);
      table.add_row({tname, std::to_string(readers),
                     support::format_fixed(wall, 1),
                     support::format_fixed(klps, 0),
                     support::format_fixed(speedup, 2),
                     support::format_fixed(rep.hops_p99, 0),
                     std::to_string(print & 0xFFFFFFFFFFFFFull)});
    }
    // Identical across reader counts (checked above): record the serve
    // results once per traffic model for the value gate.
    session.record(tname, "lookups", static_cast<double>(rep_r1.lookups), 1);
    session.record(tname, "hops_mean", rep_r1.hops_mean, 1);
    session.record(tname, "hops_p50", rep_r1.hops_p50, 1);
    session.record(tname, "hops_p99", rep_r1.hops_p99, 1);
    session.record(tname, "sybil_hit_fraction", rep_r1.sybil_hit_fraction, 1);
    session.record(tname, "owner_hits_gini", rep_r1.owner_hits_gini, 1);
    session.record(tname, "owner_hits_max_over_mean",
                   rep_r1.owner_hits_max_over_mean, 1);
    session.record(tname, "views_published",
                   static_cast<double>(rep_r1.views.published), 1);
    session.record(tname, "views_reclaimed",
                   static_cast<double>(rep_r1.views.reclaimed), 1);
    session.record(tname, "state_fingerprint",
                   static_cast<double>(print_r1 & 0x1FFFFFFFFFFFFFull), 1);
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace dhtlb::bench
