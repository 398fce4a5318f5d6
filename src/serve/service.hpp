// The serving plane: batched key lookups over a frozen ring snapshot,
// running concurrently with the tick engine.
//
// Pipeline (one writer — the engine thread — plus `readers` workers):
//
//   attach(engine)            freeze view 0, dispatch batch 0
//   tick t barrier (post-tick hook):
//     1. wait for batch t-1's shard jobs, fold its per-batch stats
//        (this is where serve metrics for the tick land — one tick of
//        lag by construction, documented in OBSERVABILITY.md)
//     2. refreeze the live view in place from the post-tick world, as
//        RingView t (its buffers are reused: one view is ever alive)
//     3. dispatch batch t across the serve shards
//   ...engine computes tick t+1 while the readers serve batch t...
//   drain()                   wait for + fold the final batch
//
// A shard job works in chunks of kRouteChunk lookups: it draws the
// chunk's (key, origin) pairs in lookup order, key then origin, exactly
// as a one-at-a-time loop would; routes the whole chunk with
// RingView::route_batch, which keeps RingView::kRouteLanes walks in
// flight so their cache misses overlap; then folds the routes into its
// accumulator in lookup order.
//
// Determinism contract (the serve twin of the tick engine's): lookups
// are split over kServeShards fixed shards; shard s of batch t draws
// every key and origin from Rng(stream_seed(serve_seed, t, s)); shard
// accumulators fold in fixed shard order on the barrier thread.  Each
// route is a pure function of its (key, origin, view), so neither the
// chunk size nor the lane count can change a result.  The
// reader-thread count is purely an execution knob — any --readers and
// any DHTLB_THREADS produce bit-identical counts, hop statistics and
// owner-load telemetry (the ctest serve.golden.* entries enforce it
// across both knobs).  Every Report field is deterministic; the plane
// reads no clock.
//
// Thread-safety model: everything here is phase-owned, not lock-guarded.
// Each ShardAccum is written by exactly one shard job per batch and
// read/zeroed by the barrier thread strictly between dispatches.  The
// Service holds the one live RingView by value: shard jobs only read
// it, and the barrier thread refills it only after collect_batch()'s
// wait_idle() has returned, so no job can still be reading the old
// view.  The ThreadPool's submit/wait_idle pair provides every
// happens-before edge; there is no lock and no shared ownership.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/ring_view.hpp"
#include "serve/traffic.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"

namespace dhtlb::serve {

/// Fixed shard count for lookup batches — deliberately NOT the reader
/// count, for exactly the reason sim::kTickShards is not the worker
/// count: per-(tick, shard) RNG streams and a fixed fold order make the
/// results independent of how many threads execute the shards.
inline constexpr std::size_t kServeShards = 16;

/// Root label of the serving plane's RNG stream tree: serve shard
/// streams are stream_seed(mix_seed(run_seed, kServeStream), tick,
/// shard), decorrelated by construction from the engine's raw-seed tick
/// streams and the scenario VM's kVmStream.
inline constexpr std::uint64_t kServeStream = 0x5E12F1A4EULL;

/// Lookups a shard job draws, routes and folds at a time: enough to
/// keep RingView::kRouteLanes walks in flight past most of a chunk, and
/// a few KiB of stack.
inline constexpr std::size_t kRouteChunk = 256;

/// Largest batch a view serves: the .scn `lookup` event's ceiling.  A
/// tick past it would loop for hours (at 2^64 - 1, forever); the
/// Service constructor DHTLB_CHECKs it, and --qps rejects it first.
inline constexpr std::uint64_t kMaxLookupsPerTick = 10'000'000;

struct Config {
  /// Reader worker threads (>= 1).  Execution knob only.
  std::size_t readers = 4;
  Traffic traffic = Traffic::kZipf;
  TrafficConfig traffic_config;
  /// Lookups per batch (one batch per published view; the driver's
  /// --qps, with the tick as the unit of time), at most
  /// kMaxLookupsPerTick.
  std::uint64_t lookups_per_tick = 2000;
};

/// View accounting.  The Service freezes one view at attach and one per
/// tick barrier, each serves exactly one batch, and each freeze after
/// the first overwrites (reclaims) the previous view in place once its
/// batch is collected — so the counts follow from the batch count alone.
struct ViewStats {
  std::uint64_t published = 0;         // freezes: view 0 + one per tick
  std::uint64_t reclaimed = 0;         // published - 1
  std::uint64_t retire_depth_max = 0;  // published > 1 ? 1 : 0
};

/// Folded end-of-run serve statistics, deterministic in (params,
/// scenario, seed, config).
struct Report {
  std::uint64_t lookups = 0;
  std::uint64_t batches = 0;       // views a batch ran against
  std::uint64_t hops_total = 0;
  std::uint64_t hops_max = 0;
  double hops_mean = 0.0;
  double hops_p50 = 0.0;
  double hops_p99 = 0.0;
  /// Fraction of lookups whose final hop landed on a Sybil vnode — how
  /// much of the traffic the strategy's Sybils actually absorb.
  double sybil_hit_fraction = 0.0;
  /// Load as seen by traffic: per-physical-node lookup-hit totals.
  std::uint64_t owners_hit = 0;    // distinct owners that served >= 1
  double owner_hits_gini = 0.0;    // over owners with >= 1 hit
  double owner_hits_max_over_mean = 0.0;
  ViewStats views;
};

class Service {
 public:
  /// `run_seed` must be the engine's seed: serve streams derive from
  /// stream_seed(mix_seed(run_seed, kServeStream), tick, shard), so
  /// they are decorrelated from every engine and scenario-VM stream.
  Service(const Config& config, std::uint64_t run_seed);
  ~Service();  // drains any in-flight batch

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Optional observability sinks; wire them before attach().  Serve
  /// instruments register on the same registry the engine samples, so
  /// serve series appear in the per-tick metrics JSONL (one tick of
  /// lag — batch t's counts land when batch t is collected, at the
  /// barrier of tick t+1).
  void set_metrics(obs::MetricsRegistry* metrics);
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Freezes the pre-run view (tick 0), dispatches its batch, and
  /// installs the engine's post-tick hook.  Call once, before run().
  void attach(sim::Engine& engine);

  /// The tick barrier (the engine's post-tick hook target): collect the
  /// in-flight batch, freeze the post-tick view, dispatch the next
  /// batch.  Public for tests and custom drivers.
  void on_tick_barrier(const sim::World& world, std::uint64_t tick);

  /// Waits for and folds the final batch.  Idempotent; call after the
  /// run before report().
  void drain();

  /// Folds the per-shard accumulators (fixed shard order) into the
  /// end-of-run report.  Call after drain().
  Report report() const;

 private:
  static constexpr std::size_t kHopBuckets = 64;  // exact counts 0..62, 63+

  void freeze(const sim::World& world, std::uint64_t tick);
  void dispatch();
  void collect_batch();
  void serve_shard(std::size_t shard);
  std::uint64_t shard_quota(std::size_t shard) const;

  /// Written by one shard job per batch, folded by the barrier thread
  /// between batches (phase-owned; see the header comment).
  struct ShardAccum {
    // Run-long totals.
    std::uint64_t lookups = 0;
    std::uint64_t hops = 0;
    std::uint64_t hops_max = 0;
    std::uint64_t sybil_hits = 0;
    std::array<std::uint64_t, kHopBuckets> hop_hist{};
    std::vector<std::uint64_t> owner_hits;  // sized owner_count at attach
    // Per-batch deltas (zeroed at dispatch, read at collect).
    std::uint64_t batch_lookups = 0;
    std::uint64_t batch_hops = 0;
  };

  Config config_;
  std::uint64_t serve_seed_;
  KeyStream stream_;
  std::unique_ptr<support::ThreadPool> readers_;
  std::array<ShardAccum, kServeShards> accums_;

  // Written only by the barrier thread while no batch is in flight;
  // read by the in-flight batch's shard jobs.
  RingView view_;

  // Barrier-thread state.
  bool batch_in_flight_ = false;
  std::uint64_t batches_ = 0;  // collected; one per frozen view

  // Observability (nullable).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct MetricIds {
    obs::MetricsRegistry::Id lookups = 0;
    obs::MetricsRegistry::Id hops = 0;
    obs::MetricsRegistry::Id view_vnodes = 0;
    obs::MetricsRegistry::Id views_retired = 0;
  };
  MetricIds ids_{};  // valid only while metrics_ != nullptr
};

}  // namespace dhtlb::serve
