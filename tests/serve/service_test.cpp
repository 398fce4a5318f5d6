// serve::Service: the full pipeline — a view frozen at every tick
// barrier, concurrent shard batches, deterministic folds — hammered
// under churn.  The ConcurrentServeUnderChurn case is the TSan target
// (8 readers racing the engine thread through every view handoff);
// the invariance cases pin the determinism contract: results are
// bit-identical at any reader count and any engine thread count.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "lb/factory.hpp"
#include "sim/engine.hpp"
#include "sim/params.hpp"
#include "stats/load_metrics.hpp"

namespace dhtlb::serve {
namespace {

sim::Params churny_params() {
  sim::Params p;
  p.initial_nodes = 300;
  p.total_tasks = 6000;
  p.churn_rate = 0.08;
  return p;
}

struct RunOutput {
  sim::RunResult sim;
  Report serve;
};

RunOutput run_serve(std::size_t engine_threads, std::size_t readers,
                    std::uint64_t seed) {
  sim::Engine engine(churny_params(), seed,
                     lb::make_strategy("random-injection"));
  engine.set_threads(engine_threads);
  Config config;
  config.readers = readers;
  config.traffic = Traffic::kZipf;
  config.traffic_config.key_universe = 2000;
  config.lookups_per_tick = 800;
  Service service(config, seed);
  service.attach(engine);
  RunOutput out;
  out.sim = engine.run();
  service.drain();
  out.serve = service.report();
  return out;
}

/// Field-by-field equality of everything deterministic in a Report.
/// Doubles compare exactly: identical draws + identical fold order must
/// produce identical bits, not merely close values.
void expect_reports_identical(const Report& a, const Report& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.hops_total, b.hops_total);
  EXPECT_EQ(a.hops_max, b.hops_max);
  EXPECT_EQ(a.hops_mean, b.hops_mean);
  EXPECT_EQ(a.hops_p50, b.hops_p50);
  EXPECT_EQ(a.hops_p99, b.hops_p99);
  EXPECT_EQ(a.sybil_hit_fraction, b.sybil_hit_fraction);
  EXPECT_EQ(a.owners_hit, b.owners_hit);
  EXPECT_EQ(a.owner_hits_gini, b.owner_hits_gini);
  EXPECT_EQ(a.owner_hits_max_over_mean, b.owner_hits_max_over_mean);
  EXPECT_EQ(a.views.published, b.views.published);
  EXPECT_EQ(a.views.reclaimed, b.views.reclaimed);
  EXPECT_EQ(a.views.retire_depth_max, b.views.retire_depth_max);
}

TEST(ServiceTest, ConcurrentServeUnderChurn) {
  // 8 readers hammering views while a churn-heavy, Sybil-spawning run
  // refreezes the ring every tick.  Run under the tsan preset (beside
  // serve.golden.serve_churn_soak.t8.r8) this is the data-race probe for
  // the whole serve plane, the single-view handoff at each barrier
  // included.
  const RunOutput out = run_serve(4, 8, 0xC0DE);
  ASSERT_TRUE(out.sim.completed);

  // One batch per frozen view: the pre-run view plus one per tick.
  EXPECT_EQ(out.serve.batches, out.sim.ticks + 1);
  EXPECT_EQ(out.serve.views.published, out.sim.ticks + 1);
  EXPECT_EQ(out.serve.lookups, out.serve.batches * 800);

  // Each freeze replaces the previous view after its batch was
  // collected — one view retired per tick, never more than one waiting.
  EXPECT_EQ(out.serve.views.reclaimed, out.serve.views.published - 1);
  EXPECT_EQ(out.serve.views.retire_depth_max, 1u);

  // Perfect-finger routing on a ~600-vnode ring: log-ish hops.
  EXPECT_GT(out.serve.hops_mean, 1.0);
  EXPECT_LT(out.serve.hops_mean, 20.0);
  EXPECT_LE(out.serve.hops_max, 30u);
  EXPECT_GE(out.serve.hops_p99, out.serve.hops_p50);

  // random-injection floods the ring with Sybils; traffic must see
  // them, and the owner-load telemetry must cover a real population.
  EXPECT_GT(out.serve.sybil_hit_fraction, 0.0);
  EXPECT_GT(out.serve.owners_hit, 0u);
  EXPECT_GT(out.serve.owner_hits_max_over_mean, 1.0);
}

TEST(ServiceTest, ResultsInvariantAcrossReaderCounts) {
  const RunOutput r1 = run_serve(1, 1, 42);
  const RunOutput r4 = run_serve(1, 4, 42);
  const RunOutput r8 = run_serve(1, 8, 42);
  ASSERT_EQ(r1.sim.ticks, r4.sim.ticks);
  ASSERT_EQ(r1.sim.ticks, r8.sim.ticks);
  expect_reports_identical(r1.serve, r4.serve);
  expect_reports_identical(r1.serve, r8.serve);
}

TEST(ServiceTest, ResultsInvariantAcrossEngineThreadCounts) {
  const RunOutput t1 = run_serve(1, 3, 7);
  const RunOutput t4 = run_serve(4, 3, 7);
  const RunOutput t8 = run_serve(8, 3, 7);
  // The engine's own outputs are thread-invariant...
  ASSERT_EQ(t1.sim.ticks, t4.sim.ticks);
  ASSERT_EQ(t1.sim.ticks, t8.sim.ticks);
  // ...and so is everything the serve plane computed from its views.
  expect_reports_identical(t1.serve, t4.serve);
  expect_reports_identical(t1.serve, t8.serve);
}

TEST(ServiceTest, ResultsChangeWithSeedAndTraffic) {
  const RunOutput a = run_serve(1, 2, 1);
  const RunOutput b = run_serve(1, 2, 2);
  // Different seeds → different worlds and key streams; collision of
  // every fold at once is implausible.
  EXPECT_NE(a.serve.hops_total, b.serve.hops_total);
}

TEST(ServiceTest, DrainIsIdempotentAndReportRepeats) {
  sim::Engine engine(churny_params(), 9);
  Config config;
  config.readers = 2;
  config.lookups_per_tick = 100;
  Service service(config, 9);
  service.attach(engine);
  (void)engine.run();
  service.drain();
  service.drain();  // second drain is a no-op
  const Report first = service.report();
  const Report second = service.report();
  expect_reports_identical(first, second);
}

TEST(ServiceTest, UntickedRunServesOnlyViewZero) {
  // attach() then drain() with no engine tick in between: the pre-run
  // view is the only one, so nothing was ever replaced.
  sim::Engine engine(churny_params(), 13);
  Config config;
  config.readers = 2;
  config.lookups_per_tick = 100;
  Service service(config, 13);
  service.attach(engine);
  service.drain();
  const Report rep = service.report();
  EXPECT_EQ(rep.batches, 1u);
  EXPECT_EQ(rep.lookups, 100u);
  EXPECT_EQ(rep.views.published, 1u);
  EXPECT_EQ(rep.views.reclaimed, 0u);
  EXPECT_EQ(rep.views.retire_depth_max, 0u);
}

/// The Report a Service folds from `views` (one batch each), computed
/// lookup by lookup with RingView::route on the streams the
/// determinism contract names: shard s of the batch at tick t draws key
/// then origin from Rng(stream_seed(mix_seed(seed, kServeStream), t, s)).
Report reference_report(const Config& config, std::uint64_t seed,
                        const std::vector<RingView>& views) {
  const KeyStream stream(config.traffic, config.traffic_config, seed);
  const std::uint64_t serve_seed = support::mix_seed(seed, kServeStream);
  constexpr std::size_t kBuckets = 64;
  std::array<std::uint64_t, kBuckets> hist{};
  std::vector<std::uint64_t> owner_hits(views.front().owner_count(), 0);
  std::uint64_t sybil_hits = 0;
  Report rep;
  for (const RingView& view : views) {
    for (std::size_t s = 0; s < kServeShards; ++s) {
      const std::uint64_t quota = config.lookups_per_tick / kServeShards +
                                  (s < config.lookups_per_tick % kServeShards);
      support::Rng rng(support::stream_seed(serve_seed, view.tick(), s));
      for (std::uint64_t i = 0; i < quota; ++i) {
        const Uint160 key = stream.draw(rng);
        const auto origin = static_cast<std::size_t>(rng.below(view.size()));
        const RingView::Route r = view.route(key, origin);
        ++rep.lookups;
        rep.hops_total += r.hops;
        rep.hops_max = std::max<std::uint64_t>(rep.hops_max, r.hops);
        ++hist[std::min<std::size_t>(r.hops, kBuckets - 1)];
        if (view.sybil_at(r.index)) ++sybil_hits;
        ++owner_hits[view.owner_at(r.index)];
      }
    }
  }
  const auto percentile = [&](double q) {
    const auto threshold = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q / 100.0 * static_cast<double>(rep.lookups))));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cum += hist[i];
      if (cum >= threshold) return static_cast<double>(i);
    }
    return static_cast<double>(kBuckets - 1);
  };
  rep.batches = views.size();
  rep.hops_mean = static_cast<double>(rep.hops_total) /
                  static_cast<double>(rep.lookups);
  rep.hops_p50 = percentile(50.0);
  rep.hops_p99 = percentile(99.0);
  rep.sybil_hit_fraction =
      static_cast<double>(sybil_hits) / static_cast<double>(rep.lookups);
  std::vector<std::uint64_t> hit;
  for (const std::uint64_t h : owner_hits) {
    if (h > 0) hit.push_back(h);
  }
  rep.owners_hit = hit.size();
  rep.owner_hits_gini = stats::gini(hit);
  rep.owner_hits_max_over_mean = stats::max_over_mean(hit);
  rep.views.published = views.size();
  rep.views.reclaimed = views.size() - 1;
  rep.views.retire_depth_max = views.size() > 1 ? 1 : 0;
  return rep;
}

TEST(ServiceTest, ChunkBoundaryQuotasMatchPerLookupRoutes) {
  // Shard quotas of one lookup short of a route chunk, exactly one, one
  // past it, and a mix of the last two: the chunked draw-route-fold
  // loop must neither drop, repeat nor reorder a lookup at the seam.
  // Each run serves the pre-run view and three ticks' views of a
  // Sybil-spawning run, and must equal the per-lookup fold of the same
  // views.
  for (const std::uint64_t per_shard :
       {kRouteChunk - 1, kRouteChunk, kRouteChunk + 1}) {
    for (const std::uint64_t extra : {std::uint64_t{0}, std::uint64_t{5}}) {
      const std::uint64_t seed = 17 + per_shard + extra;
      sim::Engine engine(churny_params(), seed,
                         lb::make_strategy("random-injection"));
      Config config;
      config.readers = 3;
      config.traffic = Traffic::kZipf;
      config.traffic_config.key_universe = 2000;
      config.lookups_per_tick = per_shard * kServeShards + extra;
      Service service(config, seed);
      std::vector<RingView> views = {RingView::freeze(engine.world(), 0)};
      service.attach(engine);
      for (int t = 0; t < 3 && engine.step(); ++t) {
        views.push_back(
            RingView::freeze(engine.world(), engine.current_tick()));
      }
      service.drain();
      const Report got = service.report();
      ASSERT_EQ(got.lookups, views.size() * config.lookups_per_tick);
      expect_reports_identical(got, reference_report(config, seed, views));
    }
  }
}

TEST(ServiceTest, ShardQuotasCoverRaggedLookupCounts) {
  // 1003 = 62*16 + 11: lookups_per_tick that doesn't divide by the
  // shard count must neither drop nor duplicate lookups.
  sim::Engine engine(churny_params(), 11);
  Config config;
  config.readers = 3;
  config.lookups_per_tick = 1003;
  Service service(config, 11);
  service.attach(engine);
  (void)engine.run();
  service.drain();
  const Report rep = service.report();
  EXPECT_EQ(rep.lookups, rep.batches * 1003);
}

TEST(ServiceDeathTest, LookupsPerTickAboveTheLimitFailACheck) {
  // A batch past the limit would loop for hours per tick; library
  // callers that skip the driver's --qps range still fail loudly.
  Config config;
  config.readers = 1;
  config.lookups_per_tick = kMaxLookupsPerTick + 1;
  EXPECT_DEATH(Service(config, 1),
               "DHTLB_CHECK failed.*10000001 lookups per tick exceed the "
               "limit of 10000000");
}

}  // namespace
}  // namespace dhtlb::serve
