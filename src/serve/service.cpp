#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "stats/load_metrics.hpp"
#include "support/check.hpp"

namespace dhtlb::serve {

namespace {

/// Smallest value whose cumulative histogram count reaches the q-th
/// percentile (exclusive-upper integer walk; exact, no interpolation).
template <std::size_t N>
std::uint64_t hist_percentile(const std::array<std::uint64_t, N>& hist,
                              std::uint64_t total, double q) {
  if (total == 0) return 0;
  const auto threshold = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < N; ++i) {
    cum += hist[i];
    if (cum >= threshold) return i;
  }
  return N - 1;
}

}  // namespace

Service::Service(const Config& config, std::uint64_t run_seed)
    : config_(config),
      serve_seed_(support::mix_seed(run_seed, kServeStream)),
      stream_(config.traffic, config.traffic_config, run_seed),
      readers_(std::make_unique<support::ThreadPool>(
          std::max<std::size_t>(1, config.readers))) {
  DHTLB_CHECK(config.lookups_per_tick <= kMaxLookupsPerTick,
              "serve::Service: " << config.lookups_per_tick
                                 << " lookups per tick exceed the limit of "
                                 << kMaxLookupsPerTick);
}

Service::~Service() { drain(); }

void Service::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  ids_.lookups = metrics_->counter("serve_lookups", "lookups");
  ids_.hops = metrics_->counter("serve_hops", "hops");
  ids_.view_vnodes = metrics_->gauge("serve_view_vnodes", "vnodes");
  ids_.views_retired = metrics_->gauge("serve_views_retired", "views");
}

std::uint64_t Service::shard_quota(std::size_t shard) const {
  const std::uint64_t base = config_.lookups_per_tick / kServeShards;
  const std::uint64_t rem = config_.lookups_per_tick % kServeShards;
  return base + (shard < rem ? 1 : 0);
}

void Service::attach(sim::Engine& engine) {
  DHTLB_CHECK(!batch_in_flight_,
              "Service::attach: already attached to a run");
  // Owner-hit arrays span the physical population, which is fixed for
  // the whole run (the waiting pool is preallocated at construction).
  const std::size_t owners = engine.world().physical_count();
  for (ShardAccum& acc : accums_) {
    acc.owner_hits.assign(owners, 0);
  }
  // View 0: the pre-run ring, so traffic flows from the first tick on.
  freeze(engine.world(), 0);
  dispatch();
  engine.set_post_tick_hook([this, &engine](std::uint64_t tick) {
    on_tick_barrier(engine.world(), tick);
  });
}

void Service::on_tick_barrier(const sim::World& world, std::uint64_t tick) {
  // collect_batch() returns only after wait_idle(): no shard job still
  // reads view_, so the barrier thread may refreeze it in place.
  collect_batch();
  freeze(world, tick);
  if (trace_) {
    trace_->instant("view_publish", "serve", {{"vnodes", view_.size()}});
  }
  if (metrics_) {
    // Every collected batch's view has now been replaced.
    metrics_->set(ids_.views_retired, static_cast<double>(batches_));
  }
  dispatch();
}

void Service::freeze(const sim::World& world, std::uint64_t tick) {
  DHTLB_ASSERT(!batch_in_flight_,
               "Service::freeze: a batch still reads the live view");
  view_.refreeze(world, tick);
  if (metrics_) {
    metrics_->set(ids_.view_vnodes, static_cast<double>(view_.size()));
  }
}

void Service::dispatch() {
  DHTLB_ASSERT(!batch_in_flight_,
               "Service::dispatch: previous batch not collected");
  batch_in_flight_ = true;
  for (std::size_t s = 0; s < kServeShards; ++s) {
    accums_[s].batch_lookups = 0;
    accums_[s].batch_hops = 0;
    readers_->submit([this, s] { serve_shard(s); });
  }
}

void Service::serve_shard(std::size_t shard) {
  const RingView& view = view_;
  ShardAccum& acc = accums_[shard];
  const std::uint64_t quota = shard_quota(shard);
  support::Rng rng(support::stream_seed(serve_seed_, view.tick(), shard));
  std::array<Uint160, kRouteChunk> keys;
  std::array<std::size_t, kRouteChunk> origins;
  std::array<RingView::Route, kRouteChunk> routes;
  for (std::uint64_t done = 0; done < quota;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kRouteChunk, quota - done));
    // Draw in the one-lookup-at-a-time order (key, then origin), so the
    // chunking changes no draw.
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = stream_.draw(rng);
      origins[i] = static_cast<std::size_t>(rng.below(view.size()));
    }
    view.route_batch({keys.data(), n}, {origins.data(), n},
                     {routes.data(), n});
    for (const RingView::Route& route : std::span(routes.data(), n)) {
      ++acc.lookups;
      ++acc.batch_lookups;
      acc.hops += route.hops;
      acc.batch_hops += route.hops;
      acc.hops_max = std::max<std::uint64_t>(acc.hops_max, route.hops);
      ++acc.hop_hist[std::min<std::size_t>(route.hops, kHopBuckets - 1)];
      if (view.sybil_at(route.index)) ++acc.sybil_hits;
      ++acc.owner_hits[view.owner_at(route.index)];
    }
    done += n;
  }
}

void Service::collect_batch() {
  if (!batch_in_flight_) return;
  readers_->wait_idle();
  batch_in_flight_ = false;
  ++batches_;
  std::uint64_t lookups = 0;
  std::uint64_t hops = 0;
  for (const ShardAccum& acc : accums_) {
    lookups += acc.batch_lookups;
    hops += acc.batch_hops;
  }
  if (metrics_) {
    metrics_->add(ids_.lookups, static_cast<double>(lookups));
    metrics_->add(ids_.hops, static_cast<double>(hops));
  }
  if (trace_) {
    trace_->counter("serve_lookups", static_cast<double>(lookups));
    trace_->counter("serve_hops", static_cast<double>(hops));
  }
}

void Service::drain() { collect_batch(); }

Report Service::report() const {
  DHTLB_CHECK(!batch_in_flight_,
              "Service::report: drain() the final batch first");
  Report rep;
  rep.batches = batches_;
  std::array<std::uint64_t, kHopBuckets> hop_hist{};
  std::uint64_t sybil_hits = 0;
  std::vector<std::uint64_t> owner_hits;
  for (const ShardAccum& acc : accums_) {
    rep.lookups += acc.lookups;
    rep.hops_total += acc.hops;
    rep.hops_max = std::max(rep.hops_max, acc.hops_max);
    sybil_hits += acc.sybil_hits;
    for (std::size_t i = 0; i < kHopBuckets; ++i) {
      hop_hist[i] += acc.hop_hist[i];
    }
    if (owner_hits.size() < acc.owner_hits.size()) {
      owner_hits.resize(acc.owner_hits.size(), 0);
    }
    for (std::size_t i = 0; i < acc.owner_hits.size(); ++i) {
      owner_hits[i] += acc.owner_hits[i];
    }
  }
  if (rep.lookups > 0) {
    rep.hops_mean = static_cast<double>(rep.hops_total) /
                    static_cast<double>(rep.lookups);
    rep.hops_p50 = static_cast<double>(
        hist_percentile(hop_hist, rep.lookups, 50.0));
    rep.hops_p99 = static_cast<double>(
        hist_percentile(hop_hist, rep.lookups, 99.0));
    rep.sybil_hit_fraction = static_cast<double>(sybil_hits) /
                             static_cast<double>(rep.lookups);
  }
  // Load seen by traffic: the hit distribution over owners that served
  // anything (ascending owner index — a fixed, deterministic order).
  std::vector<std::uint64_t> hit;
  for (const std::uint64_t h : owner_hits) {
    if (h > 0) hit.push_back(h);
  }
  rep.owners_hit = hit.size();
  if (!hit.empty()) {
    rep.owner_hits_gini = stats::gini(hit);
    rep.owner_hits_max_over_mean = stats::max_over_mean(hit);
  }
  // Each frozen view served exactly one batch.
  rep.views.published = batches_;
  rep.views.reclaimed = batches_ > 0 ? batches_ - 1 : 0;
  rep.views.retire_depth_max = batches_ > 1 ? 1 : 0;
  return rep;
}

}  // namespace dhtlb::serve
