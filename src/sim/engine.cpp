#include "sim/engine.hpp"

#include <algorithm>

#include "sim/audit.hpp"
#include "stats/descriptive.hpp"
#include "stats/load_metrics.hpp"
#include "support/check.hpp"

namespace dhtlb::sim {

namespace {

// Labels for the per-tick RNG stream tree (support::stream_seed): every
// stochastic phase of a tick draws from stream_seed(mix_seed(seed, tick),
// phase[, shard]).  Sibling phases and shards are decorrelated by
// construction, and no stream ever depends on thread count or execution
// order — the determinism contract the ctest scenario.golden.* entries
// (1, 2 and 8 threads) and parallel_determinism_test enforce.
enum TickStream : std::uint64_t {
  kStreamChurnLeave = 1,  // per-shard departure Bernoullis
  kStreamJoinCount = 2,   // per-shard waiting-pool Bernoullis
  kStreamJoinPlace = 3,   // join placement IDs (sequential)
  kStreamDecide = 4,      // strategy decision draws (sequential)
  kStreamConsume = 5,     // per-shard uniform task picks
  // Label 6 (per-shard streamed-arrival key draws) is owned by
  // sim::kStreamArrive in task_stream.hpp — the TaskStream derives it
  // from the same per-tick root itself.
};

// World construction draws from the run seed's root stream.  World uses
// the stream inside its constructor only; every later draw comes from a
// per-tick stream above.
World build_world(const Params& params, std::uint64_t seed) {
  support::Rng rng(seed);
  return World(params, rng);
}

}  // namespace

Engine::Engine(const Params& params, std::uint64_t seed,
               std::unique_ptr<Strategy> strategy)
    : seed_(seed), world_(build_world(params, seed)),
      strategy_(std::move(strategy)) {
  // Ideal runtime (§V-C): tasks spread perfectly over the initial
  // capacity, no churn, no Sybils.  Ceiling division: a partial final
  // tick still counts as a tick.
  const std::uint64_t capacity = world_.initial_capacity();
  ideal_ticks_ = (params.total_tasks + capacity - 1) / capacity;
  if (params.provisioning == TaskProvisioning::kStreamed) {
    // Auto arrival window = the ideal runtime, so the arrival rate
    // matches initial capacity and the backlog stays bounded.  An
    // explicit window can stretch the job; the ideal can never beat the
    // last arrival, which lands on tick min(window, total_tasks) (a job
    // smaller than its window arrives one task per tick), so that tick
    // is a floor on ideal_ticks_.
    const std::uint64_t window =
        params.arrival_ticks != 0 ? params.arrival_ticks : ideal_ticks_;
    stream_ = std::make_unique<TaskStream>(seed_, params.total_tasks,
                                           window);
    ideal_ticks_ =
        std::max(ideal_ticks_, std::min(window, params.total_tasks));
  }
  cap_ = params.effective_max_ticks(ideal_ticks_);
}

void Engine::request_snapshots(std::vector<std::uint64_t> ticks) {
  DHTLB_CHECK(tick_ == 0 && snapshots_.empty(),
              "Engine::request_snapshots after the first step or a tick-0 "
              "snapshot (tick " << tick_ << ", " << snapshots_.size()
                                << " snapshots)");
  snapshot_ticks_ = std::move(ticks);
  std::sort(snapshot_ticks_.begin(), snapshot_ticks_.end());
  snapshot_ticks_.erase(
      std::unique(snapshot_ticks_.begin(), snapshot_ticks_.end()),
      snapshot_ticks_.end());
  if (!snapshot_ticks_.empty() && snapshot_ticks_.front() == 0) {
    snapshots_.push_back(capture(0));
  }
}

Snapshot Engine::capture(std::uint64_t tick) const {
  Snapshot snap;
  snap.tick = tick;
  snap.workloads = world_.alive_workloads();
  snap.remaining_tasks = world_.remaining_tasks();
  snap.vnode_count = world_.vnode_count();
  snap.alive_count = world_.alive_count();
  return snap;
}

void Engine::set_threads(std::size_t threads) {
  pool_.reset();
  if (threads == 1) return;
  auto pool = std::make_unique<support::ThreadPool>(threads);
  // A one-worker pool would serialize the shards anyway; run inline and
  // skip the queue traffic.
  if (pool->thread_count() > 1) pool_ = std::move(pool);
}

void Engine::partition_alive() {
  for (auto& shard : shards_) shard.members.clear();
  for (const NodeIndex idx : world_.alive_indices()) {
    shards_[world_.home_shard(idx)].members.push_back(idx);
  }
}

void Engine::for_each_shard(const std::function<void(std::size_t)>& fn) {
  if (pool_) {
    pool_->parallel_for(kTickShards, fn);
    return;
  }
  for (std::size_t s = 0; s < kTickShards; ++s) fn(s);
}

void Engine::churn_step(std::uint64_t tick_seed) {
  // Read every tick: a pre-tick hook may have changed it on the world.
  const double churn_rate = world_.params().churn_rate;
  if (churn_rate <= 0.0) return;
  // Departure draws: per-node Bernoulli over the alive set, partitioned
  // into ring arcs.  Each shard stages its leavers from its own RNG
  // stream; nothing mutates until the fold, so the draw phase is safe to
  // fan across workers and insensitive to the order shards execute in.
  partition_alive();
  for_each_shard([&](std::size_t s) {
    ShardScratch& shard = shards_[s];
    shard.departures.clear();
    support::Rng rng(support::stream_seed(tick_seed, kStreamChurnLeave, s));
    for (const NodeIndex idx : shard.members) {
      if (rng.bernoulli(churn_rate)) shard.departures.push_back(idx);
    }
  });
  // Fold: apply the staged departures in fixed shard order.  Departures
  // are the canonical cross-arc effect — a leaver's tasks fall to its
  // ring successor, which may live on another shard — so they only ever
  // happen here, sequentially.  The last remaining node never departs.
  for (auto& shard : shards_) {
    for (const NodeIndex idx : shard.departures) {
      if (world_.alive_count() <= 1) break;
      if (world_.depart(idx)) {
        ++leaves_;
        if (trace_) trace_->instant("leave", "churn", {{"node", idx}});
      }
    }
  }
  // Arrivals: each waiting node independently decides to join.  Waiting
  // nodes are exchangeable, so drawing a Binomial count and popping that
  // many from the pool is equivalent to per-node draws.  The count draws
  // are sharded over fixed index ranges of the pool (a pure sum of
  // Bernoullis — order-free), while the joins themselves fold
  // sequentially: a joiner's fresh SHA-1 ID lands anywhere on the ring,
  // splitting an arbitrary shard's arc.
  const std::size_t waiting_now = world_.waiting_count();
  const std::size_t per_shard =
      (waiting_now + kTickShards - 1) / kTickShards;
  for_each_shard([&](std::size_t s) {
    const std::size_t begin = std::min(s * per_shard, waiting_now);
    const std::size_t end = std::min(begin + per_shard, waiting_now);
    support::Rng rng(support::stream_seed(tick_seed, kStreamJoinCount, s));
    std::uint64_t successes = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (rng.bernoulli(churn_rate)) ++successes;
    }
    shards_[s].join_draws = successes;
  });
  std::uint64_t joins_this_tick = 0;
  for (const auto& shard : shards_) joins_this_tick += shard.join_draws;
  support::Rng join_rng(support::stream_seed(tick_seed, kStreamJoinPlace));
  for (std::uint64_t i = 0; i < joins_this_tick; ++i) {
    if (world_.join_from_pool(join_rng)) {
      ++joins_;
      if (trace_) trace_->instant("join", "churn");
    }
  }
}

void Engine::arrival_step() {
  tick_arrived_ = 0;
  if (!stream_ || stream_->count_at(tick_) == 0) return;
  // Key draws are embarrassingly parallel — each (tick, shard) cell owns
  // its RNG stream and its closed-form range of the one arrival buffer.
  // Placements can land on any arc, so the fold below applies the whole
  // buffer sequentially, in fixed shard order, exactly like the churn
  // folds: one sorted sweep resolves every key's owner, then the keys
  // are appended in buffer order.
  arrivals_.resize(stream_->count_at(tick_));
  const std::span<TaskKey> buffer(arrivals_);
  for_each_shard([&](std::size_t s) {
    stream_->draw_shard(tick_, s,
                        buffer.subspan(stream_->shard_offset(tick_, s),
                                       stream_->shard_count(tick_, s)));
  });
  world_.inject_tasks(arrivals_);
  const std::uint64_t arrived = arrivals_.size();
  stream_arrived_ += arrived;
  tick_arrived_ = arrived;
  if (trace_) trace_->instant("arrivals", "stream", {{"count", arrived}});
}

void Engine::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  ids_.ring_gini = metrics_->gauge("ring_gini", "ratio");
  ids_.workload_stddev = metrics_->gauge("workload_stddev", "tasks");
  ids_.workload_hist = metrics_->histogram(
      "workload", "tasks",
      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
       1024.0});
  ids_.sybils_live = metrics_->gauge("sybils_live", "sybils");
  ids_.nodes_alive = metrics_->gauge("nodes_alive", "nodes");
  ids_.tasks_remaining = metrics_->gauge("tasks_remaining", "tasks");
  ids_.work_done = metrics_->counter("work_done", "tasks");
  ids_.churn_joins = metrics_->counter("churn_joins", "nodes");
  ids_.churn_leaves = metrics_->counter("churn_leaves", "nodes");
  ids_.tasks_migrated = metrics_->counter("tasks_migrated", "tasks");
  ids_.workload_queries = metrics_->counter("workload_queries", "queries");
  // Registered only when a stream exists so preallocated metrics files
  // (and their goldens) keep the exact pre-streaming catalog.
  if (stream_) {
    ids_.tasks_arrived = metrics_->counter("tasks_arrived", "tasks");
  }
}

void Engine::observe_tick(std::uint64_t done_this_tick) {
  // One pass over the alive workloads feeds the gauge trio and the
  // per-tick histogram; everything below is pure observation.
  const std::vector<std::uint64_t> loads = world_.alive_workloads();
  const double ring_gini = stats::gini(loads);
  stats::RunningStats spread;
  for (const std::uint64_t load : loads) {
    spread.add(static_cast<double>(load));
  }
  // Each alive node holds its primary plus its Sybils and a waiting node
  // holds none (the sybil-ownership invariant run_audit checks).
  const std::size_t live_sybils = world_.vnode_count() - world_.alive_count();

  if (metrics_ != nullptr) {
    metrics_->set(ids_.ring_gini, ring_gini);
    metrics_->set(ids_.workload_stddev, spread.stddev());
    obs_loads_.clear();
    obs_loads_.reserve(loads.size());
    for (const std::uint64_t load : loads) {
      obs_loads_.push_back(static_cast<double>(load));
    }
    metrics_->observe_all(ids_.workload_hist, obs_loads_);
    metrics_->set(ids_.sybils_live, static_cast<double>(live_sybils));
    metrics_->set(ids_.nodes_alive, static_cast<double>(loads.size()));
    metrics_->set(ids_.tasks_remaining,
                  static_cast<double>(world_.remaining_tasks()));
    metrics_->add(ids_.work_done, static_cast<double>(done_this_tick));
    metrics_->add(ids_.churn_joins,
                  static_cast<double>(joins_ - obs_prev_joins_));
    metrics_->add(ids_.churn_leaves,
                  static_cast<double>(leaves_ - obs_prev_leaves_));
    metrics_->add(ids_.tasks_migrated,
                  static_cast<double>(
                      strategy_counters_.tasks_acquired_by_sybils -
                      obs_prev_counters_.tasks_acquired_by_sybils));
    metrics_->add(ids_.workload_queries,
                  static_cast<double>(strategy_counters_.workload_queries -
                                      obs_prev_counters_.workload_queries));
    if (stream_) {
      metrics_->add(ids_.tasks_arrived, static_cast<double>(tick_arrived_));
    }
    metrics_->sample(tick_);
  }
  if (trace_ != nullptr) {
    trace_->counter("nodes_alive", static_cast<double>(loads.size()));
    trace_->counter("tasks_remaining",
                    static_cast<double>(world_.remaining_tasks()));
    trace_->counter("workload_stddev", spread.stddev());
    trace_->counter("ring_gini", ring_gini);
    trace_->counter("sybils_live", static_cast<double>(live_sybils));
    trace_->complete_tick(
        "tick", {{"work_done", done_this_tick},
                 {"joins", joins_ - obs_prev_joins_},
                 {"leaves", leaves_ - obs_prev_leaves_}});
  }
  obs_prev_joins_ = joins_;
  obs_prev_leaves_ = leaves_;
  obs_prev_counters_ = strategy_counters_;
}

bool Engine::step() {
  if (tick_ >= cap_) return false;
  // The trace clock advances before the pre-tick hook so scripted-event
  // instants emitted by the hook land on the tick they apply to.
  if (trace_) trace_->set_tick(tick_ + 1);
  // Scripted timeline events apply at the start of the tick, before
  // churn; a true return keeps a drained engine ticking (idle) toward
  // events scheduled later.
  bool keep_alive = false;
  if (pre_tick_hook_) keep_alive = pre_tick_hook_(tick_ + 1);
  // A drained world is still mid-run while the arrival stream has tasks
  // left to deliver (streamed provisioning's analogue of "work remains").
  const bool stream_pending = stream_ && !stream_->exhausted_after(tick_);
  if (world_.remaining_tasks() == 0 && !stream_pending && !keep_alive) {
    return false;
  }
  ++tick_;
  // Root of this tick's RNG stream tree (see TickStream above).
  const std::uint64_t tick_seed = support::mix_seed(seed_, tick_);

  churn_step(tick_seed);
  arrival_step();

  if (strategy_ && tick_ % world_.params().decision_period == 0) {
    // Decisions mutate the ring globally (Sybil arcs split anywhere), so
    // they stay sequential, on their own per-tick stream.
    support::Rng decide_rng(support::stream_seed(tick_seed, kStreamDecide));
    strategy_->decide(world_, decide_rng, strategy_counters_);
    if (trace_) {
      // Deltas against the last observed tick = this decision's effect
      // (decisions run at most once per tick).
      const std::uint64_t spawned = strategy_counters_.sybils_created -
                                    obs_prev_counters_.sybils_created;
      const std::uint64_t quit = strategy_counters_.sybils_retired -
                                 obs_prev_counters_.sybils_retired;
      trace_->instant(
          "decision", "strategy",
          {{"strategy", strategy_->name()},
           {"sybils_created", spawned},
           {"sybils_retired", quit},
           {"tasks_acquired", strategy_counters_.tasks_acquired_by_sybils -
                                  obs_prev_counters_.tasks_acquired_by_sybils},
           {"queries", strategy_counters_.workload_queries -
                           obs_prev_counters_.workload_queries}});
      if (spawned > 0) {
        trace_->instant("sybil_spawn", "strategy", {{"count", spawned}});
      }
      if (quit > 0) {
        trace_->instant("sybil_quit", "strategy", {{"count", quit}});
      }
    }
  }

  // Consumption: nodes that joined or were split by a decision this tick
  // participate, so the shard partition is rebuilt, then each shard
  // consumes its own nodes' tasks on its own stream.  Every mutation is
  // local to a node's own vnodes (TaskStores, workload cache), so shards
  // never touch each other's state; the one global effect — the
  // remaining-task counter — is staged as a per-shard total and settled
  // at the fold barrier.
  partition_alive();
  for_each_shard([&](std::size_t s) {
    ShardScratch& shard = shards_[s];
    support::Rng rng(support::stream_seed(tick_seed, kStreamConsume, s));
    shard.consumed = world_.consume_members(shard.members, rng);
  });
  std::uint64_t done_this_tick = 0;
  for (const auto& shard : shards_) done_this_tick += shard.consumed;
  world_.debit_remaining(done_this_tick);
  completed_ += done_this_tick;
  if (record_series_) series_.push_back(done_this_tick);
  // Tick barrier: the world is folded and quiescent; hand it to the
  // serving plane (or any other read-side attachment) before this
  // tick's observation and snapshots, so those see any metrics the
  // hook's fold publishes.
  if (post_tick_hook_) post_tick_hook_(tick_);
  if (trace_ || metrics_) observe_tick(done_this_tick);

  if (!snapshot_ticks_.empty()) {
    const auto it = std::lower_bound(snapshot_ticks_.begin(),
                                     snapshot_ticks_.end(), tick_);
    if (it != snapshot_ticks_.end() && *it == tick_) {
      snapshots_.push_back(capture(tick_));
    }
  }
  if (audit_enabled_) run_audit();
  // With a timeline hook attached, a drained world is not necessarily the
  // end — the next step() consults the hook before giving up.  Likewise a
  // still-flowing arrival stream keeps a drained engine ticking.
  if (pre_tick_hook_) return tick_ < cap_;
  const bool more_arrivals = stream_ && !stream_->exhausted_after(tick_);
  return (world_.remaining_tasks() > 0 || more_arrivals) && tick_ < cap_;
}

void Engine::run_audit() const {
  AuditReport report = InvariantAuditor(world_).run();
  // Engine-level conservation: every task is either done or still in the
  // ring, and the Sybil counters can only overstate the live population
  // (departures retire Sybils without touching the strategy counters).
  if (completed_ + world_.remaining_tasks() != world_.total_tasks()) {
    report.failures.push_back(
        {"conservation", "completed + remaining != tasks ever assigned"});
  }
  // Streamed provisioning: the tasks actually delivered must equal the
  // schedule's closed-form prefix sum — the stream can neither drop nor
  // duplicate an arrival without this tripping.
  if (stream_ && stream_arrived_ != stream_->cumulative(tick_)) {
    report.failures.push_back(
        {"conservation",
         "stream arrivals diverge from the schedule's closed-form count"});
  }
  std::uint64_t live_sybils = 0;
  for (const NodeIndex idx : world_.alive_indices()) {
    live_sybils += world_.sybil_count(idx);
  }
  if (strategy_counters_.sybils_retired > strategy_counters_.sybils_created ||
      live_sybils > strategy_counters_.sybils_created -
                        strategy_counters_.sybils_retired) {
    report.failures.push_back(
        {"conservation", "live Sybil count exceeds created - retired"});
  }
  if (strategy_counters_.invitations_accepted >
      strategy_counters_.invitations_sent) {
    report.failures.push_back(
        {"conservation", "more invitations accepted than sent"});
  }
  DHTLB_CHECK(report.ok(),
              "invariant audit failed at tick "
                  << tick_ << ", seed " << seed_ << ", strategy "
                  << (strategy_ ? strategy_->name() : "none")
                  << " — reproduce with this seed under an audit build\n"
                  << report.to_string());
}

void Engine::finalize(RunResult& result) const {
  result.strategy_name = strategy_ ? std::string(strategy_->name())
                                   : "none";
  result.ticks = tick_;
  result.ideal_ticks = ideal_ticks_;
  result.runtime_factor = ideal_ticks_ == 0
                              ? 0.0
                              : static_cast<double>(tick_) /
                                    static_cast<double>(ideal_ticks_);
  // A streamed run that hit the cap mid-delivery is incomplete even if
  // the backlog happens to be empty.
  result.completed = world_.remaining_tasks() == 0 &&
                     (!stream_ || stream_->exhausted_after(tick_));
  result.avg_work_per_tick =
      tick_ == 0 ? 0.0
                 : static_cast<double>(world_.total_tasks() -
                                       world_.remaining_tasks()) /
                       static_cast<double>(tick_);
  result.joins = joins_;
  result.leaves = leaves_;
  result.strategy_counters = strategy_counters_;
  result.snapshots = snapshots_;
  result.work_per_tick = series_;
}

RunResult Engine::run() {
  while (step()) {
  }
  // step() returns false both on the final productive tick and when
  // called after completion; loop until it reports no more progress.
  RunResult result;
  finalize(result);
  return result;
}

}  // namespace dhtlb::sim
