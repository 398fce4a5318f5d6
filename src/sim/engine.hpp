// The tick engine: drives one simulated distributed computation to
// completion and reports the paper's outputs (§V-C): runtime in ticks,
// ideal runtime, runtime factor, average work per tick, plus workload
// snapshots and strategy event counters.
//
// Tick anatomy (1-based tick t; DESIGN.md §0 walks one tick end to end):
//   1. churn       — each alive node leaves w.p. churn_rate; each waiting
//                    node joins w.p. churn_rate (§IV-A)
//   2. arrivals    — streamed provisioning only: this tick's TaskStream
//                    keys are drawn per shard into one buffer and placed
//                    in one sorted sweep (World::inject_tasks)
//   3. decision    — strategy->decide() when t % decision_period == 0
//   4. consumption — each alive node consumes work_per_tick tasks
//   5. snapshot    — if t was requested (tick 0 = initial state)
// The run ends when no tasks remain and none are still scheduled to
// arrive (or the safety cap trips).
//
// Parallel execution (see DESIGN.md "Parallel tick engine"): the alive
// population is partitioned into kTickShards contiguous ring arcs by
// primary vnode ID.  The embarrassingly parallel phases — churn
// departure draws and task consumption — fan the shards across a
// support::ThreadPool; every cross-shard effect (the departures
// themselves, joins landing anywhere on the ring, the global
// remaining-task counter) is staged per shard and folded sequentially in
// fixed shard order at a barrier.  Each (tick, phase, shard) triple owns
// an Rng stream derived via support::stream_seed, so the simulation's
// outputs are bit-identical at any DHTLB_THREADS setting — the shard
// count is fixed, the fold order is fixed, and no draw ever depends on
// which thread ran it.  Observation, snapshots, and the invariant audit
// all run on the folded post-barrier world.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/params.hpp"
#include "sim/snapshot.hpp"
#include "sim/strategy.hpp"
#include "sim/task_stream.hpp"
#include "sim/world.hpp"
#include "support/thread_pool.hpp"

namespace dhtlb::sim {

/// Everything a single run produces.
struct RunResult {
  std::string strategy_name;
  std::uint64_t ticks = 0;
  std::uint64_t ideal_ticks = 0;
  double runtime_factor = 0.0;
  bool completed = false;  // false = safety cap hit before tasks drained
  double avg_work_per_tick = 0.0;

  // Environment event counts.
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;

  StrategyCounters strategy_counters;
  std::vector<Snapshot> snapshots;

  /// Tasks completed on each tick (index 0 = tick 1); only populated
  /// when Engine::record_tick_series(true) was set.  This is the "work
  /// per tick" series of §V-C.
  std::vector<std::uint64_t> work_per_tick;
};

class Engine {
 public:
  /// A null strategy pointer means "no strategy" (the paper's baseline).
  Engine(const Params& params, std::uint64_t seed,
         std::unique_ptr<Strategy> strategy = nullptr);

  /// Requests a snapshot after each listed tick (0 = initial state).
  /// Must be called before run()/step() and before a tick-0 snapshot
  /// is taken (an earlier call listing tick 0 takes it); a DHTLB_CHECK
  /// fails otherwise.
  void request_snapshots(std::vector<std::uint64_t> ticks);

  /// Timeline hook (the scenario engine's entry point): invoked at the
  /// start of every tick — before churn, decisions, and consumption —
  /// with the 1-based tick number about to run.  The hook may mutate the
  /// world: joins, departures, task injection, and the run's Params via
  /// World::set_churn_rate / set_sybil_threshold (the engine keeps no
  /// Params copy; it reads world().params() each tick).  Its return
  /// value answers "must the engine keep ticking even though no work
  /// remains?": returning true lets a drained engine run idle ticks
  /// (churn still applies) toward scheduled future events; returning
  /// false restores the default stop-when-drained behavior.  The hook is
  /// not called once the safety cap is reached.
  using TickHook = std::function<bool(std::uint64_t tick)>;
  void set_pre_tick_hook(TickHook hook) { pre_tick_hook_ = std::move(hook); }

  /// Tick-barrier hook (the serving plane's entry point): invoked at the
  /// end of every completed tick — after the consumption fold and the
  /// remaining-task debit, before observation, snapshots, and the audit
  /// — with the 1-based tick number that just ran.  The world is fully
  /// folded and quiescent at that point, so the hook may read it freely
  /// (e.g. to freeze a serve::RingView) but must not mutate it.
  using PostTickHook = std::function<void(std::uint64_t tick)>;
  void set_post_tick_hook(PostTickHook hook) {
    post_tick_hook_ = std::move(hook);
  }

  /// Hot-swaps the balancing strategy mid-run (scenario `strategy`
  /// event).  Counters accumulate across the swap; nullptr reverts to
  /// the paper's no-strategy baseline.
  void set_strategy(std::unique_ptr<Strategy> strategy) {
    strategy_ = std::move(strategy);
  }

  /// Enables recording of tasks completed per tick (off by default: the
  /// series is O(runtime) memory).
  void record_tick_series(bool enabled) { record_series_ = enabled; }

  /// Attaches a trace sink (nullable; null detaches).  With a sink
  /// attached the engine emits per-tick spans, churn / decision / sybil
  /// instants, and counter series; without one, the only cost is a
  /// branch on this pointer.  Timestamps come from the tick counter, so
  /// traces are deterministic for a given (params, seed).
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

  /// Attaches a metrics registry (nullable) and registers the engine's
  /// instruments on it (see OBSERVABILITY.md for the catalog).  The
  /// engine samples the registry once at the end of every tick.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Runs the full InvariantAuditor (sim/audit.hpp) after every tick and
  /// aborts with the offending tick + seed on the first violation.
  /// Defaults to on in audit builds (-DDHTLB_AUDIT=ON), off otherwise;
  /// tests may force it on in any build flavor.
  void set_audit(bool enabled) { audit_enabled_ = enabled; }

  /// Sizes the worker pool for the parallel tick phases: 0 = hardware
  /// concurrency, 1 (the default) = run every shard inline on the
  /// calling thread.  Purely an execution knob — the sharded algorithm,
  /// RNG streams, and fold order are identical at every setting, so
  /// results never depend on it.  Library code never calls it from the
  /// environment: programs read DHTLB_THREADS (support::env_threads) and
  /// call it, for scenario runs through ObsSinks::configure_engine.  The
  /// experiment harness deliberately leaves engines single-threaded
  /// because it parallelizes across trials.
  void set_threads(std::size_t threads);
  std::size_t threads() const { return pool_ ? pool_->thread_count() : 1; }

  /// Runs to completion (or the safety cap) and returns the results.
  RunResult run();

  /// Executes one tick; returns true while work remains and the cap has
  /// not tripped.  Useful for incremental inspection in tests/examples.
  bool step();

  const World& world() const { return world_; }
  World& world() { return world_; }
  std::uint64_t current_tick() const { return tick_; }
  std::uint64_t ideal_ticks() const { return ideal_ticks_; }

  /// Snapshot of the current state (used internally and by examples).
  Snapshot capture(std::uint64_t tick) const;

  /// Streamed provisioning only: the run's arrival source (null in
  /// preallocated mode).  Exposed for tests and drivers that want the
  /// schedule (e.g. to size expectations against cumulative()).
  const TaskStream* task_stream() const { return stream_.get(); }

 private:
  void churn_step(std::uint64_t tick_seed);
  void arrival_step();
  void run_audit() const;
  void finalize(RunResult& result) const;
  void observe_tick(std::uint64_t done_this_tick);

  /// Rebins the alive set into per-shard member lists (reading the
  /// world's cached home shards).  Called before each parallel phase —
  /// membership may have changed since the last one.
  void partition_alive();

  /// Runs fn(shard) for every shard: fanned across the pool when one is
  /// attached, in shard order inline otherwise.  fn must only touch its
  /// own shard's staging state (plus world state local to that shard's
  /// nodes) — all cross-shard effects wait for the sequential fold.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  std::uint64_t seed_;
  World world_;
  std::unique_ptr<Strategy> strategy_;
  std::uint64_t tick_ = 0;
  std::uint64_t completed_ = 0;

  /// Per-shard staging area: the only state a worker may write during a
  /// parallel phase.  Folded (and cleared) in fixed shard order at the
  /// barrier that ends the phase.
  struct ShardScratch {
    std::vector<NodeIndex> members;     // this tick's shard partition
    std::vector<NodeIndex> departures;  // churn draw results, pre-fold
    std::uint64_t consumed = 0;         // consumption total, pre-fold
    std::uint64_t join_draws = 0;       // Binomial successes, pre-fold
  };
  std::array<ShardScratch, kTickShards> shards_;
  // Streamed provisioning state (both unset in preallocated mode):
  // the arrival source and the running count of stream-delivered tasks,
  // audited each tick against the schedule's closed-form prefix sum.
  std::unique_ptr<TaskStream> stream_;
  // This tick's streamed keys, pre-fold: shard s draws into its
  // TaskStream::shard_offset range, so the buffer is in shard order.
  std::vector<TaskKey> arrivals_;
  std::uint64_t stream_arrived_ = 0;
  std::uint64_t tick_arrived_ = 0;  // this tick's arrivals, for metrics
  std::unique_ptr<support::ThreadPool> pool_;  // null = inline execution
#ifdef DHTLB_AUDIT_ENABLED
  bool audit_enabled_ = true;
#else
  bool audit_enabled_ = false;
#endif
  std::uint64_t ideal_ticks_ = 0;
  std::uint64_t cap_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  StrategyCounters strategy_counters_;
  std::vector<std::uint64_t> snapshot_ticks_;  // sorted
  std::vector<Snapshot> snapshots_;
  bool record_series_ = false;
  std::vector<std::uint64_t> series_;
  std::vector<double> obs_loads_;  // reused histogram batch buffer
  TickHook pre_tick_hook_;
  PostTickHook post_tick_hook_;

  // Observability (both sinks nullable; see set_trace/set_metrics).
  obs::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  struct MetricIds {
    obs::MetricsRegistry::Id ring_gini = 0;
    obs::MetricsRegistry::Id workload_stddev = 0;
    obs::MetricsRegistry::Id workload_hist = 0;
    obs::MetricsRegistry::Id sybils_live = 0;
    obs::MetricsRegistry::Id nodes_alive = 0;
    obs::MetricsRegistry::Id tasks_remaining = 0;
    obs::MetricsRegistry::Id work_done = 0;
    obs::MetricsRegistry::Id churn_joins = 0;
    obs::MetricsRegistry::Id churn_leaves = 0;
    obs::MetricsRegistry::Id tasks_migrated = 0;
    obs::MetricsRegistry::Id workload_queries = 0;
    obs::MetricsRegistry::Id tasks_arrived = 0;  // streamed mode only
  };
  MetricIds ids_{};  // valid only while metrics_ != nullptr
  // Previous cumulative values, for per-tick deltas fed to counters and
  // decision instants.
  std::uint64_t obs_prev_joins_ = 0;
  std::uint64_t obs_prev_leaves_ = 0;
  StrategyCounters obs_prev_counters_{};
};

}  // namespace dhtlb::sim
